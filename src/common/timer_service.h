// A sharded multi-worker timer engine: schedules closures to run at a future
// time point. The simulated network and every store's replication engine use
// this instead of spawning a thread per in-flight message, which keeps
// thousands of concurrent replication events cheap.
//
// Architecture: N timer shards, each with its own min-heap, mutex, condition
// variable, and dispatcher thread, feed a pool of M workers. Dispatchers only
// pop due entries and route them; callbacks *execute* on the workers, so one
// slow callback stalls a single worker instead of the whole engine and due
// events on different shards fire in parallel.
//
// Affinity tokens: every schedule call carries a token (defaulting to a fresh
// round-robin value per call). A token maps to a fixed shard and a fixed
// worker, so all callbacks scheduled with the same token execute serially, in
// deadline order, FIFO for equal deadlines. The replication engine keys its
// shipments by (store, key, destination) to keep per-key apply order intact;
// callers that need no ordering just omit the token and get maximum spread.
// There is NO cross-token ordering guarantee, even within one shard.
// Dispatchers never run a callback themselves.

#ifndef SRC_COMMON_TIMER_SERVICE_H_
#define SRC_COMMON_TIMER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mpsc_queue.h"
#include "src/common/small_function.h"

namespace antipode {

class Counter;
class Gauge;
class HistogramMetric;
class SimScheduler;

struct TimerServiceOptions {
  // Timer shards: independent heaps + dispatcher threads. More shards reduce
  // contention on ScheduleAfter and let due events fire in parallel.
  size_t num_shards = 4;
  // Callback workers; 0 resolves to 1.
  size_t num_workers = kDefaultWorkers;

  // Deterministic simulation mode: no shards, no workers, no threads — every
  // schedule becomes an event on the process's active SimScheduler (sim.h),
  // which must be installed (via ScopedSimMode) before construction. Virtual
  // time replaces the wall clock; the per-affinity ordering contract is
  // preserved by the scheduler's seeded tie-break (same token ⇒ FIFO).
  bool deterministic = false;

  // SIZE_MAX sentinel resolved at construction to min(8, max(2, cores)).
  static constexpr size_t kDefaultWorkers = SIZE_MAX;
};

class TimerService {
 public:
  using Options = TimerServiceOptions;
  // Routes same-token callbacks to the same shard and worker (serial, FIFO
  // for equal deadlines). kNoAffinity picks a fresh round-robin token.
  using AffinityToken = uint64_t;

  TimerService() : TimerService(Options{}) {}
  explicit TimerService(const Options& options);
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  // A process-wide instance shared by the simulation substrate.
  static TimerService& Shared();

  // Runs `fn` once `delay` has elapsed (immediately when delay <= 0).
  // Returns false — and drops `fn` without running it — after Shutdown;
  // callers doing completion accounting must roll back on false.
  //
  // TimerTask (a move-only 64-byte-inline callable) replaces std::function
  // here so steady-state schedules — including the store's replication
  // shipments — carry their captures without a heap allocation, and so
  // callbacks can own move-only resources (pooled entry handles).
  bool ScheduleAfter(Duration delay, TimerTask fn);
  bool ScheduleAfter(Duration delay, AffinityToken affinity, TimerTask fn);
  bool ScheduleAt(TimePoint when, TimerTask fn);
  bool ScheduleAt(TimePoint when, AffinityToken affinity, TimerTask fn);

  // Stops the engine; pending timers that are already due still fire (their
  // callbacks run to completion before Shutdown returns), future ones are
  // dropped. Idempotent and safe to race with ScheduleAfter.
  void Shutdown();

  // Entries still in the shard heaps plus callbacks queued on workers.
  size_t PendingCount() const;

  size_t num_shards() const { return shards_.size(); }
  size_t num_workers() const { return workers_.size(); }
  bool deterministic() const { return sim_ != nullptr; }

 private:
  struct Entry {
    TimePoint when;
    uint64_t sequence;  // FIFO tie-break for equal deadlines (per shard)
    AffinityToken affinity;
    TimerTask fn;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Entry, std::vector<Entry>, EntryLater> entries;
    uint64_t next_sequence = 0;
    std::thread dispatcher;
    // Per-shard instruments (shared across TimerService instances with the
    // same shard index; registry pointers are stable, increments additive).
    Gauge* queue_depth = nullptr;
    HistogramMetric* dispatch_lag = nullptr;
  };
  struct Worker {
    // Lock-free dispatcher→worker handoff: each shard dispatcher is a
    // producer, the worker thread is the sole consumer. Replaced the
    // mutex+deque BlockingQueue, whose per-task lock/signal was the hottest
    // lock in the engine under load.
    MpscQueue<TimerTask> tasks;
    std::thread thread;
  };

  // Deterministic-mode state shared with every event posted to the sim
  // scheduler: events may still sit in the scheduler heap after this service
  // shuts down (or is destroyed), so the open/pending flags outlive it.
  struct SimState {
    std::atomic<bool> open{true};
    std::atomic<size_t> pending{0};
    Counter* callbacks_run = nullptr;
  };

  void DispatchLoop(Shard& shard);
  void WorkerLoop(Worker& worker);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  Counter* callbacks_run_ = nullptr;
  SimScheduler* sim_ = nullptr;
  std::shared_ptr<SimState> sim_state_;

  std::atomic<AffinityToken> round_robin_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mu_;  // serializes the join phase of concurrent Shutdowns
};

}  // namespace antipode

#endif  // SRC_COMMON_TIMER_SERVICE_H_
