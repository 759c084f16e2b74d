// Fixed-rate open-loop window shared by load_sweep and trace_mesh: a
// generator releases arrivals at one offered rate for one window, issued
// regardless of completion (the Ditto/Palette methodology), then waits for
// every in-flight request to complete. Capacity is perfbench's job; these
// windows run well under the knee, so every request is expected to finish
// and the reported latency is the request path's, not a queue's.

#ifndef BENCH_OPEN_LOOP_H_
#define BENCH_OPEN_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "bench/bench_util.h"
#include "src/antipode/enforcement.h"
#include "src/common/histogram.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"

namespace antipode {

inline uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One request flow under test. Issue() runs the writer side (on the
// generator's writer pool, inside a fresh RequestContext); the bed's reader
// side reports each finished request through RecordCompletion.
class OpenLoopBed {
 public:
  virtual ~OpenLoopBed() = default;
  // `send_ns` is the request's scheduled arrival time: latency is measured
  // from there, so writer-pool queueing is part of every percentile.
  virtual void Issue(uint64_t request_index, uint64_t send_ns) = 0;
  // Settles replication before teardown.
  virtual void Drain() = 0;

  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }
  uint64_t metadata_bytes() const { return metadata_bytes_.load(std::memory_order_relaxed); }
  Histogram latency() const { return latency_.Snapshot(); }

  // Waits until `issued` completions or `deadline`; true when fully drained.
  bool AwaitCompletions(uint64_t issued, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(done_mu_);
    return done_cv_.wait_until(lock, deadline, [&] {
      return completed_.load(std::memory_order_relaxed) >= issued;
    });
  }

 protected:
  // Called at the barrier site with the lineage the request actually carried:
  // accounts what the phase's enforcement strategy ships per request.
  void RecordMetadata(EnforcementBackendKind backend, const Lineage& lineage) {
    metadata_bytes_.fetch_add(EnforcementMetadataBytes(backend, lineage),
                              std::memory_order_relaxed);
  }

  void RecordCompletion(uint64_t send_ns, bool found) {
    latency_.Record(static_cast<double>(SteadyNowNanos() - send_ns) / 1e6);
    if (!found) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }

 private:
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> metadata_bytes_{0};
  ConcurrentHistogram latency_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

struct WindowConfig {
  double rate = 0.0;          // offered req/s
  double duration_s = 1.0;    // generation window
  double drain_cap_s = 8.0;   // completions counted up to this long after it
  int writers = 8;
};

struct WindowResult {
  double offered_req_s = 0.0;
  uint64_t issued = 0;
  // Completions by the drain cap; below `issued` means the window was not
  // sustained and its latencies describe a backlog.
  uint64_t completed = 0;
  uint64_t violations = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double metadata_bytes_per_req = 0.0;
};

// Runs one window against `bed`, then settles it completely (every issued
// request finishes; replication drains) so teardown never races a handler.
inline WindowResult RunWindow(OpenLoopBed& bed, const WindowConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  ThreadPool writers(static_cast<size_t>(config.writers), "window-writers");
  const auto start = Clock::now();
  const auto gen_end = start + seconds(config.duration_s);
  const auto interval = seconds(1.0 / config.rate);

  uint64_t issued = 0;
  auto next_arrival = start;
  while (next_arrival < gen_end) {
    std::this_thread::sleep_until(next_arrival);
    // Release every arrival that is due: the sleep can overshoot several
    // intervals and the generator must not silently shed load.
    const auto now = Clock::now();
    while (next_arrival <= now && next_arrival < gen_end) {
      const uint64_t index = issued++;
      const uint64_t send_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(next_arrival.time_since_epoch())
              .count());
      writers.Submit([&bed, index, send_ns] {
        ScopedContext scoped(RequestContext{});
        bed.Issue(index, send_ns);
      });
      next_arrival += interval;
    }
  }
  bed.AwaitCompletions(issued, Clock::now() + seconds(config.drain_cap_s));

  WindowResult result;
  result.offered_req_s = config.rate;
  result.issued = issued;
  result.completed = bed.completed();
  result.violations = bed.violations();
  const Histogram latency = bed.latency();
  result.p50_ms = latency.Percentile(0.50);
  result.p99_ms = latency.Percentile(0.99);
  result.p999_ms = latency.Percentile(0.999);
  result.metadata_bytes_per_req =
      result.completed == 0 ? 0.0
                            : static_cast<double>(bed.metadata_bytes()) /
                                  static_cast<double>(result.completed);

  // Scored; now settle. Replication delays are finite and the pools stay
  // live, so every issued request finishes; the ctest timeout backstops it.
  writers.Shutdown();
  bed.AwaitCompletions(issued, Clock::now() + std::chrono::hours(1));
  bed.Drain();
  return result;
}

// The window's fields of a phase object in a BENCH_*.json report.
inline void EmitWindow(JsonReport& json, const WindowResult& window) {
  json.Field("offered_req_s", window.offered_req_s);
  json.Field("issued", window.issued);
  json.Field("completed", window.completed);
  json.Field("p50_ms", window.p50_ms);
  json.Field("p99_ms", window.p99_ms);
  json.Field("p999_ms", window.p999_ms);
  json.Field("metadata_bytes_per_req", window.metadata_bytes_per_req);
}

}  // namespace antipode

#endif  // BENCH_OPEN_LOOP_H_
