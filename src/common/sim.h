// Deterministic single-threaded simulation scheduler (FoundationDB-style).
//
// In simulation mode nothing sleeps and no engine thread runs: every delayed
// action in the process — timer callbacks, network deliveries, replication
// shipments, RPC handler hops — becomes an event in one min-heap ordered by
// (virtual deadline, seeded tie, submission sequence). The driver thread pumps
// the heap; executing an event advances virtual time to its deadline, so a
// 90 ms WAN round-trip costs nothing but the callback itself. Wall-clock never
// enters: `ScopedSimMode` installs a `SimClock` as the process `GlobalClock()`
// so `DeadlineAfter`, store waits, fault windows, and backoff sleeps all read
// virtual time.
//
// Determinism and exploration: events due at the *same* virtual instant are
// ordered by `tie = mix64(seed ^ affinity)`, then by submission sequence.
// Same affinity token ⇒ same tie ⇒ FIFO, which preserves the TimerService
// per-token ordering contract (replication apply order). Different tokens at
// an equal deadline are permuted per seed — that permutation is the schedule
// space a seed sweep explores. Replaying a seed replays the exact schedule;
// `TraceHash()` folds every executed event's (relative time, tie, sequence)
// into one value so replays can be compared byte-for-byte cheaply.
//
// Blocking in simulation is cooperative: the blocking waits (barrier, store
// wait, replication drain, RPC response) go through `BlockUntil` or the
// one-shot `Completion` built on it, which parks on a condition variable in
// real time but under an active scheduler calls `RunUntil(pred, deadline)`
// instead. That pumps events (reentrantly — an event's callback may itself
// block and pump) until the predicate holds or virtual time reaches the
// deadline. A quiescent heap with an unsatisfied predicate and no deadline is
// a genuine deadlock and is reported as such by returning false without
// advancing time.

#ifndef SRC_COMMON_SIM_H_
#define SRC_COMMON_SIM_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/small_function.h"

namespace antipode {

// splitmix64 finalizer; also used for trace-hash folding.
inline uint64_t SimMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class SimScheduler {
 public:
  explicit SimScheduler(uint64_t seed);
  ~SimScheduler();

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  // The process-wide active scheduler, or nullptr outside sim mode. Engines
  // (TimerService, ThreadPool, BlockUntil) test this to decide whether to
  // post events or use real threads. Installed by ScopedSimMode.
  static SimScheduler* Active();

  uint64_t seed() const { return seed_; }

  // Virtual now. Anchored at the real clock reading taken at construction so
  // HLC stamps and trace epochs stay monotone across real→sim transitions.
  TimePoint Now() const;

  // Enqueues `fn` to run at virtual time `when` (clamped to now). Events
  // sharing `affinity` run in FIFO order at equal deadlines; distinct
  // affinities at equal deadlines run in a per-seed order.
  void Post(TimePoint when, uint64_t affinity, TimerTask fn);

  // Pops and runs the earliest event, advancing virtual time to its deadline.
  // Returns false when the heap is empty. Reentrant: the executing callback
  // may Post and may itself pump via RunUntil/StepOne.
  bool StepOne();

  // Pumps until the heap is empty (or `max_events`, a runaway backstop).
  // Returns the number of events run.
  size_t RunUntilQuiescent(size_t max_events = kDefaultMaxEvents);

  // Pumps events whose deadline is ≤ `deadline` until `pred()` holds.
  // On success returns true with virtual time wherever the satisfying event
  // left it. On timeout (next event past the deadline, or quiescent with a
  // finite deadline) advances virtual time to the deadline and returns
  // pred(). Quiescent with deadline == TimePoint::max() is a deadlock:
  // returns pred() without advancing time.
  bool RunUntil(const std::function<bool()>& pred, TimePoint deadline);

  // Runs every event due at or before `target`, then sets virtual time to
  // `target`. SimClock::SleepFor is implemented with this, which is what
  // makes poll-sleep loops (shim visibility probes, RPC backoff) make
  // progress in simulation.
  void AdvanceTo(TimePoint target);
  void AdvanceBy(Duration d) { AdvanceTo(Now() + d); }

  // Order-sensitive digest of every executed event: fold of (deadline
  // relative to the sim origin, tie, sequence). Two runs with equal hashes
  // executed the identical schedule.
  uint64_t TraceHash() const;
  uint64_t events_run() const;
  size_t PendingEvents() const;

  // Deterministic substitute for the process-global RPC call-id counter
  // (call ids seed per-call backoff RNG, so they must not leak state across
  // episodes).
  uint64_t NextCallId();

  // Deterministic affinity token for an executor identified by `key`
  // (typically a ThreadPool's address). Tokens are assigned in first-use
  // order, not from the address value, so ASLR cannot perturb schedules.
  uint64_t ExecutorAffinity(const void* key);

 private:
  struct Event {
    TimePoint when;
    uint64_t tie = 0;
    uint64_t seq = 0;
    TimerTask fn;
  };
  // std::push_heap/pop_heap comparator for a min-heap on (when, tie, seq).
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };

  // Pops the earliest event into `out`; false when empty. Caller runs it
  // outside the lock.
  bool PopNext(Event& out);

  static constexpr size_t kDefaultMaxEvents = 50'000'000;

  const uint64_t seed_;
  const TimePoint origin_;

  // Everything below is guarded by mu_. The lock is recursive only in the
  // sense that it is released around callback execution; sim mode is
  // single-threaded by construction and the mutex just keeps incidental
  // cross-thread posts (a draining real thread scheduling one last event)
  // from corrupting the heap.
  mutable std::mutex mu_;
  std::vector<Event> heap_;
  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t trace_hash_;
  uint64_t next_call_id_ = 1;
  std::unordered_map<const void*, uint64_t> executor_affinity_;
  uint64_t next_executor_token_ = 0;
};

// Clock implementation backed by the scheduler's virtual time. SleepFor pumps
// the event heap across the span instead of parking the thread.
class SimClock final : public Clock {
 public:
  explicit SimClock(SimScheduler* scheduler) : scheduler_(scheduler) {}

  TimePoint Now() const override { return scheduler_->Now(); }
  void SleepFor(Duration d) const override {
    if (d.count() > 0) scheduler_->AdvanceBy(d);
  }

 private:
  SimScheduler* const scheduler_;
};

// RAII for one deterministic episode: constructs a scheduler, installs it as
// SimScheduler::Active() and its SimClock as the GlobalClock(); the
// destructor restores both. Episodes must construct their own engines
// (TimerService with deterministic=true, private stores/topologies) inside
// the scope.
class ScopedSimMode {
 public:
  explicit ScopedSimMode(uint64_t seed);
  ~ScopedSimMode();

  ScopedSimMode(const ScopedSimMode&) = delete;
  ScopedSimMode& operator=(const ScopedSimMode&) = delete;

  SimScheduler& scheduler() { return scheduler_; }

 private:
  SimScheduler scheduler_;
  SimClock clock_;
  Clock* previous_clock_;
  SimScheduler* previous_active_;
};

// The one pump-or-park wait: blocks until `pred()` holds or `deadline`
// passes, and returns whether `pred()` holds. Under an active SimScheduler it
// pumps virtual time (`RunUntil`); otherwise it parks on `cv`. `pred` is
// always evaluated with `mu` held, and whoever makes it true must do so
// under `mu`, or take `mu` afterwards, before notifying `cv`, so the wakeup
// cannot be lost. TimePoint::max() means no deadline; a quiescent simulation
// then returns false (a deadlock).
bool BlockUntil(std::mutex& mu, std::condition_variable& cv, TimePoint deadline,
                const std::function<bool()>& pred);

// One-shot result slot for a blocking caller — the barrier latch, a store
// wait, an RPC response. The first Set wins; WaitUntil blocks via BlockUntil.
// Set notifies after releasing the lock, so a waiter can return (and drop its
// reference) before Set is done: a setter on another thread must co-own the
// completion (shared_ptr).
template <typename T>
class Completion {
 public:
  // Stores `value` unless one is already set; returns whether it did.
  bool Set(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (value_.has_value()) {
        return false;
      }
      value_.emplace(std::move(value));
    }
    cv_.notify_all();
    return true;
  }

  // True once a value is set; false when `deadline` passed first.
  bool WaitUntil(TimePoint deadline) {
    return BlockUntil(mu_, cv_, deadline, [this] { return value_.has_value(); });
  }

  // Moves the value out; only after WaitUntil returned true.
  T Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(value_).value();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<T> value_;
};

}  // namespace antipode

#endif  // SRC_COMMON_SIM_H_
