#include "src/common/sim.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace antipode {

namespace {

std::atomic<SimScheduler*> g_active_scheduler{nullptr};

}  // namespace

SimScheduler::SimScheduler(uint64_t seed)
    : seed_(seed),
      origin_(SystemClock::Instance().Now()),
      now_(origin_),
      trace_hash_(SimMix64(seed ^ 0x616e7469706f6465ULL)) {}

SimScheduler::~SimScheduler() = default;

SimScheduler* SimScheduler::Active() {
  return g_active_scheduler.load(std::memory_order_acquire);
}

TimePoint SimScheduler::Now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void SimScheduler::Post(TimePoint when, uint64_t affinity, TimerTask fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Event event;
  event.when = when < now_ ? now_ : when;
  event.tie = SimMix64(seed_ ^ affinity);
  event.seq = next_seq_++;
  event.fn = std::move(fn);
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

bool SimScheduler::PopNext(Event& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  out = std::move(heap_.back());
  heap_.pop_back();
  if (out.when > now_) now_ = out.when;
  const uint64_t rel =
      static_cast<uint64_t>(std::chrono::duration_cast<Duration>(out.when - origin_).count());
  trace_hash_ = SimMix64(trace_hash_ ^ SimMix64(rel) ^ SimMix64(out.tie + out.seq));
  ++events_run_;
  return true;
}

bool SimScheduler::StepOne() {
  Event event;
  if (!PopNext(event)) return false;
  event.fn();
  return true;
}

size_t SimScheduler::RunUntilQuiescent(size_t max_events) {
  size_t run = 0;
  while (run < max_events && StepOne()) ++run;
  return run;
}

bool SimScheduler::RunUntil(const std::function<bool()>& pred, TimePoint deadline) {
  while (true) {
    if (pred()) return true;
    TimePoint next_when;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (heap_.empty()) break;
      next_when = heap_.front().when;
    }
    if (next_when > deadline) break;
    StepOne();
  }
  // Timed out (or quiescent). With a finite deadline, virtual time owes the
  // caller the full wait; with no deadline, a quiescent heap is a deadlock
  // and advancing time would only disguise it.
  if (deadline != TimePoint::max()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (deadline > now_) now_ = deadline;
  }
  return pred();
}

void SimScheduler::AdvanceTo(TimePoint target) {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (heap_.empty() || heap_.front().when > target) {
        if (target > now_) now_ = target;
        return;
      }
    }
    StepOne();
  }
}

uint64_t SimScheduler::TraceHash() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_hash_;
}

uint64_t SimScheduler::events_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_run_;
}

size_t SimScheduler::PendingEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_.size();
}

uint64_t SimScheduler::NextCallId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_call_id_++;
}

uint64_t SimScheduler::ExecutorAffinity(const void* key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = executor_affinity_.find(key);
  if (it != executor_affinity_.end()) return it->second;
  // First-use-order token, offset away from the low round-robin tokens a
  // fresh TimerService hands out so executor streams stay distinct.
  const uint64_t token = 0x45584543'00000000ULL + next_executor_token_++;
  executor_affinity_.emplace(key, token);
  return token;
}

bool BlockUntil(std::mutex& mu, std::condition_variable& cv, TimePoint deadline,
                const std::function<bool()>& pred) {
  if (SimScheduler* sim = SimScheduler::Active()) {
    // The lock is held only for each predicate check, never across the
    // events RunUntil executes, so an event may take `mu` to satisfy it.
    return sim->RunUntil(
        [&] {
          std::lock_guard<std::mutex> lock(mu);
          return pred();
        },
        deadline);
  }
  std::unique_lock<std::mutex> lock(mu);
  if (deadline == TimePoint::max()) {
    cv.wait(lock, pred);
    return true;
  }
  return cv.wait_until(lock, deadline, pred);
}

ScopedSimMode::ScopedSimMode(uint64_t seed)
    : scheduler_(seed),
      clock_(&scheduler_),
      previous_clock_(nullptr),
      previous_active_(SimScheduler::Active()) {
  g_active_scheduler.store(&scheduler_, std::memory_order_release);
  previous_clock_ = SetGlobalClock(&clock_);
}

ScopedSimMode::~ScopedSimMode() {
  SetGlobalClock(previous_clock_);
  g_active_scheduler.store(previous_active_, std::memory_order_release);
}

}  // namespace antipode
