// In-process RPC framework with automatic request-context propagation — the
// substrate role gRPC + OpenTelemetry play in the paper's benchmarks.
//
// Services register named methods and run their handlers on a per-service
// thread pool pinned to a region. A blocking `RpcClient::Call`:
//   1. serializes the caller's RequestContext into the request,
//   2. sleeps one sampled one-way WAN delay toward the callee region,
//   3. runs the handler under a ScopedContext built from the request, on the
//      callee's pool, and waits for its outcome on a `Completion`
//      (src/common/sim.h) — in simulation that wait pumps virtual time,
//   4. sleeps the return one-way delay,
//   5. folds the handler's final baggage back into the caller's context
//      (RequestContext::MergeBaggage unions the lineage — this is how updated
//      lineages flow back in RPC responses, paper Fig. 4 step ③).

#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/fault/fault_injector.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace antipode {

// A handler receives the request payload and returns a response payload.
// The request's context is installed thread-locally for the handler's
// duration, so Lineage API calls inside it see the caller's lineage.
using RpcHandler = std::function<Result<std::string>(const std::string& payload)>;

// Exponential backoff with full jitter for retried calls. Backoff before
// attempt k (k ≥ 2) is `initial * multiplier^(k-2)` model milliseconds,
// scaled by a uniform draw from [1-jitter, 1+jitter]. The draw comes from a
// generator seeded with `seed ^ call_id`, so a given call's backoff schedule
// is reproducible.
struct RpcRetryPolicy {
  int max_attempts = 1;  // 1 = no retries
  double initial_backoff_model_ms = 5.0;
  double backoff_multiplier = 2.0;
  double jitter = 0.5;
  uint64_t seed = 1;
};

// Per-call knobs for RpcClient::Call. `timeout` bounds one attempt;
// `deadline` bounds the whole call (all attempts and backoffs). Both use the
// repo-wide Duration::max() = "no timeout" sentinel. Only kUnavailable and
// kDeadlineExceeded outcomes are retried, and only when `idempotent` is true;
// kNotFound (unknown service/method) always surfaces immediately — retries
// must never mask a miswired call.
struct RpcCallOptions {
  Duration timeout = Duration::max();
  Duration deadline = Duration::max();
  RpcRetryPolicy retry;
  bool idempotent = true;
};

// A handler's result plus the serialized context it produced — what the
// server ships back, and what the dedup cache stores so a retried idempotent
// call observes the original execution's outcome (including its lineage
// baggage) instead of running the handler twice.
struct RpcServerOutcome {
  Result<std::string> result{Status::Internal("handler never ran")};
  std::string context_blob;
};

class RpcService {
 public:
  RpcService(std::string name, Region region, size_t num_threads);

  void RegisterMethod(std::string method, RpcHandler handler);

  const std::string& name() const { return name_; }
  Region region() const { return region_; }
  ThreadPool& executor() { return executor_; }

  // Looks up a handler; nullptr when the method is unknown.
  const RpcHandler* FindMethod(const std::string& method) const;

  // Retry de-duplication: a retried idempotent call re-presents its call id;
  // if the original attempt's handler already ran (e.g. only the response was
  // lost), the cached outcome is returned without re-running the handler.
  // FIFO-bounded — old entries are evicted once the cache holds
  // kDedupCacheCapacity outcomes.
  bool TryGetCachedOutcome(uint64_t call_id, RpcServerOutcome* out);
  void CacheOutcome(uint64_t call_id, RpcServerOutcome out);

  static constexpr size_t kDedupCacheCapacity = 1024;

 private:
  std::string name_;
  Region region_;
  ThreadPool executor_;
  mutable std::mutex mu_;
  std::map<std::string, RpcHandler> handlers_;
  std::unordered_map<uint64_t, RpcServerOutcome> dedup_cache_;  // guarded by mu_
  std::deque<uint64_t> dedup_order_;                            // guarded by mu_
};

class ServiceRegistry {
 public:
  explicit ServiceRegistry(SimulatedNetwork* network = &SimulatedNetwork::Default())
      : network_(network) {}

  // Creates and owns a service. Returns a stable pointer.
  RpcService* RegisterService(std::string name, Region region, size_t num_threads = 4);

  RpcService* Lookup(const std::string& name) const;
  SimulatedNetwork* network() { return network_; }

  // Drains every service's executor. Call before tearing down stores.
  void ShutdownAll();

 private:
  SimulatedNetwork* network_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<RpcService>> services_;
};

// A pre-resolved call target: service, handler, and metric instruments
// looked up once and reused across calls. Every string-addressed Call pays
// two registry map probes plus four label-map constructions for its metric
// instruments; on deep-graph requests issuing dozens of calls each, routes
// turn that into pointer reads. A route must outlive every call made with it
// (including calls whose response was dropped and whose handler is still
// draining), and assumes — like the cached RpcHandler pointer the string
// path already hands out — that methods are registered before traffic flows.
struct RpcRoute {
  RpcService* service = nullptr;
  const RpcHandler* handler = nullptr;
  std::string method;
  Counter* calls = nullptr;
  Counter* retries = nullptr;
  Counter* errors = nullptr;
  Counter* deadline_exceeded = nullptr;
  Counter* dedup_hits = nullptr;
  HistogramMetric* latency = nullptr;

  explicit operator bool() const { return handler != nullptr; }
};

class RpcClient {
 public:
  RpcClient(ServiceRegistry* registry, Region caller_region,
            FaultInjector* faults = &FaultInjector::Default())
      : registry_(registry), caller_region_(caller_region), faults_(faults) {}

  // Blocking unary call with context propagation both ways, default options
  // (no deadline, no retry).
  Result<std::string> Call(const std::string& service, const std::string& method,
                           const std::string& payload);

  // Blocking unary call with per-attempt timeout, overall deadline, and
  // seeded exponential-backoff retry of kUnavailable / kDeadlineExceeded
  // outcomes (idempotent calls only). A retried call carries the same call id
  // so the service's dedup cache prevents double handler execution when only
  // the response was lost.
  Result<std::string> Call(const std::string& service, const std::string& method,
                           const std::string& payload, const RpcCallOptions& options);

  // Resolves a route once for repeated calls (kNotFound on unknown
  // service/method). Routes are client-independent: any client (any caller
  // region) may call through a route, concurrently.
  Result<RpcRoute> Resolve(const std::string& service, const std::string& method) const;

  // Same call semantics as the string overloads, minus the per-call lookups.
  Result<std::string> Call(const RpcRoute& route, const std::string& payload);
  Result<std::string> Call(const RpcRoute& route, const std::string& payload,
                           const RpcCallOptions& options);

  // Fire-and-forget: delivers the invocation after one one-way delay and does
  // not propagate context back.
  Status Cast(const std::string& service, const std::string& method, const std::string& payload);

  Region caller_region() const { return caller_region_; }

 private:
  // One attempt of a retryable call; `attempt_deadline` bounds the wait for
  // the handler's response.
  Result<std::string> CallOnce(const RpcRoute& route, const std::string& payload,
                               uint64_t call_id, bool dedup, TimePoint attempt_deadline);

  ServiceRegistry* registry_;
  Region caller_region_;
  FaultInjector* faults_;
};

}  // namespace antipode

#endif  // SRC_RPC_RPC_H_
