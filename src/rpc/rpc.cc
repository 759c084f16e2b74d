#include "src/rpc/rpc.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <random>

#include "src/common/property.h"
#include "src/common/sim.h"
#include "src/obs/trace.h"

namespace antipode {

RpcService::RpcService(std::string name, Region region, size_t num_threads)
    : name_(std::move(name)), region_(region), executor_(num_threads, name_) {}

void RpcService::RegisterMethod(std::string method, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[std::move(method)] = std::move(handler);
}

const RpcHandler* RpcService::FindMethod(const std::string& method) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handlers_.find(method);
  return it == handlers_.end() ? nullptr : &it->second;
}

RpcService* ServiceRegistry::RegisterService(std::string name, Region region,
                                             size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  auto service = std::make_unique<RpcService>(name, region, num_threads);
  RpcService* raw = service.get();
  services_[std::move(name)] = std::move(service);
  return raw;
}

RpcService* ServiceRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : it->second.get();
}

void ServiceRegistry::ShutdownAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, service] : services_) {
    service->executor().Shutdown();
  }
}

bool RpcService::TryGetCachedOutcome(uint64_t call_id, RpcServerOutcome* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dedup_cache_.find(call_id);
  if (it == dedup_cache_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

void RpcService::CacheOutcome(uint64_t call_id, RpcServerOutcome out) {
  // Only completed executions may enter the dedup cache: replaying a cached
  // transient error to a retry would defeat the retry.
  ANTIPODE_ALWAYS("rpc.dedup_cache_only_ok", out.result.ok());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = dedup_cache_.emplace(call_id, std::move(out));
  if (!inserted) {
    return;  // a concurrent retry's execution already cached this call
  }
  dedup_order_.push_back(call_id);
  while (dedup_order_.size() > kDedupCacheCapacity) {
    dedup_cache_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
}

namespace {

// Call ids are process-unique so retried attempts of one logical call — and
// only those — share an id in a service's dedup cache.
std::atomic<uint64_t> g_next_call_id{1};

// Runs `handler` under a ScopedContext built from the request, wrapped in a
// server-side span whose parent rides in the request's baggage. The server
// span installs itself into the scoped context before the handler runs, so
// store writes and nested calls inside the handler become its children.
RpcServerOutcome RunHandler(const RpcHandler& handler, const std::string& payload,
                            const std::string& context_blob, const std::string& service,
                            const std::string& method, Region region) {
  RpcServerOutcome out;
  if (context_blob.empty()) {
    out.result = handler(payload);
    out.context_blob = RequestContext::SerializeCurrent();
    return out;
  }
  ScopedContext scoped(RequestContext::Deserialize(context_blob));
  {
    Span span = Span::Start("rpc/server", {.category = "rpc", .region = region});
    if (span.recording()) {
      span.Annotate("service", service);
      span.Annotate("method", method);
    }
    out.result = handler(payload);
  }
  out.context_blob = scoped.context().Serialize();
  return out;
}

}  // namespace

Result<RpcRoute> RpcClient::Resolve(const std::string& service, const std::string& method) const {
  RpcService* target = registry_->Lookup(service);
  if (target == nullptr) {
    return Status::NotFound("no such service: " + service);
  }
  const RpcHandler* handler = target->FindMethod(method);
  if (handler == nullptr) {
    return Status::NotFound("no such method: " + service + "/" + method);
  }
  RpcRoute route;
  route.service = target;
  route.handler = handler;
  route.method = method;
  MetricsRegistry& metrics = MetricsRegistry::Default();
  route.calls = metrics.GetCounter("rpc.calls", {{"service", service}});
  route.retries = metrics.GetCounter("rpc.retries", {{"service", service}});
  route.errors = metrics.GetCounter("rpc.errors", {{"service", service}});
  route.deadline_exceeded = metrics.GetCounter("rpc.deadline_exceeded", {{"service", service}});
  route.dedup_hits = metrics.GetCounter("rpc.dedup_hits", {{"service", service}});
  route.latency = metrics.GetHistogram("rpc.latency_model_ms", {{"service", service}});
  return route;
}

Result<std::string> RpcClient::Call(const std::string& service, const std::string& method,
                                    const std::string& payload) {
  return Call(service, method, payload, RpcCallOptions{});
}

Result<std::string> RpcClient::Call(const std::string& service, const std::string& method,
                                    const std::string& payload, const RpcCallOptions& options) {
  auto route = Resolve(service, method);
  if (!route.ok()) {
    return route.status();
  }
  return Call(route.value(), payload, options);
}

Result<std::string> RpcClient::Call(const RpcRoute& route, const std::string& payload) {
  return Call(route, payload, RpcCallOptions{});
}

Result<std::string> RpcClient::CallOnce(const RpcRoute& route, const std::string& payload,
                                        uint64_t call_id, bool dedup, TimePoint attempt_deadline) {
  RpcService* const target = route.service;
  const std::string& service = target->name();
  // Everything the handler task touches lives in one block co-owned by this
  // caller and the task: a deadline-bounded caller may abandon the wait while
  // the handler still runs (or after its response was dropped), and a route
  // resolved for one string-addressed call dies with that call, so the block
  // holds a copy. Capturing only the block keeps the queued task free of a
  // heap allocation.
  struct CallState {
    RpcRoute route;
    std::string payload;
    std::string context_blob;
    uint64_t call_id = 0;
    bool dedup = false;
    bool drop_response = false;
    Completion<RpcServerOutcome> outcome;
  };
  auto state = std::make_shared<CallState>();
  // Serialized after the client span is installed (by Call), so the callee
  // sees it as its parent.
  state->context_blob = RequestContext::SerializeCurrent();
  const size_t request_bytes = payload.size() + state->context_blob.size();
  const Region target_region = target->region();

  const RpcFault fault = faults_ == nullptr ? RpcFault{} : faults_->OnRpc(service);

  // Outbound one-way delay, paid by the (blocking) caller.
  registry_->network()->SleepOneWay(caller_region_, target_region, request_bytes);
  if (GlobalClock().Now() >= attempt_deadline) {
    return Status::DeadlineExceeded("rpc deadline exceeded: " + service + "/" + route.method);
  }

  if (fault.fail_handler) {
    // The request reaches a broken server: the handler never runs (so nothing
    // is cached) and the caller sees a retryable transport-level failure.
    return Status::Unavailable("injected rpc failure: " + service + "/" + route.method);
  }

  state->route = route;
  state->payload = payload;
  state->call_id = call_id;
  state->dedup = dedup;
  // A lost response with no deadline would hang the caller forever; the model
  // refuses that, so response loss only fires against deadline-bounded calls.
  state->drop_response = fault.drop_response && attempt_deadline != TimePoint::max();
  const bool submitted = target->executor().Submit([state] {
    const RpcRoute& route = state->route;
    RpcServerOutcome result;
    if (state->dedup && route.service->TryGetCachedOutcome(state->call_id, &result)) {
      ANTIPODE_REACHABLE("rpc.dedup_hit");
      route.dedup_hits->Increment();
    } else {
      result = RunHandler(*route.handler, state->payload, state->context_blob,
                          route.service->name(), route.method, route.service->region());
      // Only completed executions are cached: a transient handler error
      // must be re-attempted, not replayed, by a retry.
      if (state->dedup && result.result.ok()) {
        route.service->CacheOutcome(state->call_id, result);
      }
    }
    // A dropped response still executed (and cached) — the outcome is simply
    // never set, and the caller's deadline fires.
    if (!state->drop_response) {
      state->outcome.Set(std::move(result));
    }
  });
  if (!submitted) {
    return Status::Unavailable("service shut down: " + service);
  }
  if (!state->outcome.WaitUntil(attempt_deadline)) {
    if (attempt_deadline == TimePoint::max()) {
      // Only a quiescent simulation gets here: the handler can never run
      // (executor torn down mid-episode), so surface it instead of hanging.
      return Status::Unavailable("rpc response never arrived (simulation quiescent): " +
                                 service);
    }
    return Status::DeadlineExceeded("rpc deadline exceeded: " + service + "/" + route.method);
  }
  RpcServerOutcome out = state->outcome.Take();

  const size_t response_bytes =
      (out.result.ok() ? out.result.value().size() : 0) + out.context_blob.size();
  registry_->network()->SleepOneWay(target_region, caller_region_, response_bytes);
  if (fault.delay_add_model_ms > 0.0) {
    GlobalClock().SleepFor(TimeScale::FromModelMillis(fault.delay_add_model_ms));
  }
  if (GlobalClock().Now() >= attempt_deadline) {
    return Status::DeadlineExceeded("rpc deadline exceeded: " + service + "/" + route.method);
  }

  // Fold the handler's final baggage back into the caller's context so that
  // lineage updates made inside the callee become visible here.
  RequestContext* current = RequestContext::Current();
  if (current != nullptr && !out.context_blob.empty()) {
    current->MergeBaggage(RequestContext::Deserialize(out.context_blob).baggage());
  }
  return out.result;
}

namespace {

bool RetryableCode(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kDeadlineExceeded;
}

}  // namespace

Result<std::string> RpcClient::Call(const RpcRoute& route, const std::string& payload,
                                    const RpcCallOptions& options) {
  if (route.handler == nullptr) {
    return Status::NotFound("call through unresolved rpc route");
  }
  const TimePoint call_start = GlobalClock().Now();
  const TimePoint call_deadline = DeadlineAfter(options.deadline);
  const int max_attempts = std::max(1, options.retry.max_attempts);
  const bool may_retry = options.idempotent && max_attempts > 1;
  // In simulation, call ids come from the episode's scheduler: the process
  // counter would leak state across episodes (ids seed the backoff RNG, so a
  // drifting counter would desynchronize replays).
  SimScheduler* const sim = SimScheduler::Active();
  const uint64_t call_id =
      sim != nullptr ? sim->NextCallId() : g_next_call_id.fetch_add(1, std::memory_order_relaxed);
  std::mt19937_64 backoff_rng(options.retry.seed ^ call_id);

  Span span = Span::Start("rpc/call", {.category = "rpc", .region = caller_region_});
  if (span.recording()) {
    span.Annotate("service", route.service->name());
    span.Annotate("method", route.method);
  }

  route.calls->Increment();

  Result<std::string> result = Status::Internal("rpc never attempted");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ANTIPODE_REACHABLE("rpc.retry_attempted");
      route.retries->Increment();
      const double base = options.retry.initial_backoff_model_ms *
                          std::pow(options.retry.backoff_multiplier, attempt - 2);
      std::uniform_real_distribution<double> jitter(1.0 - options.retry.jitter,
                                                    1.0 + options.retry.jitter);
      const Duration backoff = TimeScale::FromModelMillis(base * jitter(backoff_rng));
      GlobalClock().SleepFor(std::min(backoff, RemainingBudget(call_deadline)));
    }
    if (RemainingBudget(call_deadline) == Duration::zero()) {
      result = Status::DeadlineExceeded("rpc deadline exceeded: " + route.service->name() + "/" +
                                        route.method);
      break;
    }
    TimePoint attempt_deadline = call_deadline;
    if (options.timeout != Duration::max()) {
      attempt_deadline = std::min(attempt_deadline, DeadlineAfter(options.timeout));
    }
    result = CallOnce(route, payload, call_id, may_retry, attempt_deadline);
    if (result.ok() || !may_retry || !RetryableCode(result.status().code())) {
      break;
    }
  }

  // The handler's span context must not leak back as the caller's current
  // span (the response merge overwrites every non-lineage baggage key).
  if (span.recording()) {
    SetCurrentSpanContext(span.context());
  }
  if (!result.ok()) {
    route.errors->Increment();
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      route.deadline_exceeded->Increment();
    }
  }
  route.latency->Record(TimeScale::ToModelMillis(
      std::chrono::duration_cast<Duration>(GlobalClock().Now() - call_start)));
  return result;
}

Status RpcClient::Cast(const std::string& service, const std::string& method,
                       const std::string& payload) {
  RpcService* target = registry_->Lookup(service);
  if (target == nullptr) {
    return Status::NotFound("no such service: " + service);
  }
  const RpcHandler* handler = target->FindMethod(method);
  if (handler == nullptr) {
    return Status::NotFound("no such method: " + service + "/" + method);
  }
  const std::string context_blob = RequestContext::SerializeCurrent();
  const Region target_region = target->region();
  MetricsRegistry::Default().GetCounter("rpc.casts", {{"service", service}})->Increment();
  // Casts from this caller to one service share an affinity token, so their
  // delivery (and hence executor submission) order is preserved even though
  // the timer engine runs unrelated callbacks concurrently.
  const TimerService::AffinityToken affinity =
      std::hash<std::string>{}(service) ^ (static_cast<uint64_t>(RegionIndex(caller_region_)) << 32);
  registry_->network()->Deliver(
      caller_region_, target->region(), payload.size() + context_blob.size(), affinity,
      [target, handler, payload, context_blob, service, method, target_region] {
        target->executor().Submit([handler, payload, context_blob, service, method,
                                   target_region] {
          RunHandler(*handler, payload, context_blob, service, method, target_region);
        });
      });
  return Status::Ok();
}

}  // namespace antipode
