#include "src/common/timer_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/common/sim.h"
#include "src/obs/metrics.h"

namespace antipode {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested != TimerServiceOptions::kDefaultWorkers) {
    return std::max<size_t>(1, requested);
  }
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores, 2, 8);
}

}  // namespace

TimerService::TimerService(const Options& options) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  callbacks_run_ = registry.GetCounter("timer.callbacks_run");
  if (options.deterministic) {
    sim_ = SimScheduler::Active();
    if (sim_ == nullptr) {
      std::fprintf(stderr,
                   "TimerService: deterministic mode requires an active SimScheduler "
                   "(construct inside a ScopedSimMode)\n");
      std::abort();
    }
    sim_state_ = std::make_shared<SimState>();
    sim_state_->callbacks_run = callbacks_run_;
    return;
  }
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  const size_t num_workers = ResolveWorkers(options.num_workers);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string label = std::to_string(i);
    shard->queue_depth = registry.GetGauge("timer.queue_depth", {{"shard", label}});
    shard->dispatch_lag = registry.GetHistogram("timer.dispatch_lag_ms", {{"shard", label}});
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after every shard/worker slot exists: a dispatcher may
  // route to any worker queue the moment it runs.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
  for (auto& shard : shards_) {
    shard->dispatcher = std::thread([this, s = shard.get()] { DispatchLoop(*s); });
  }
}

TimerService::~TimerService() { Shutdown(); }

TimerService& TimerService::Shared() {
  static auto* service = new TimerService();  // intentionally leaked; lives for the process
  return *service;
}

bool TimerService::ScheduleAfter(Duration delay, TimerTask fn) {
  return ScheduleAt(GlobalClock().Now() + delay, std::move(fn));
}

bool TimerService::ScheduleAfter(Duration delay, AffinityToken affinity, TimerTask fn) {
  return ScheduleAt(GlobalClock().Now() + delay, affinity, std::move(fn));
}

bool TimerService::ScheduleAt(TimePoint when, TimerTask fn) {
  return ScheduleAt(when, round_robin_.fetch_add(1, std::memory_order_relaxed), std::move(fn));
}

bool TimerService::ScheduleAt(TimePoint when, AffinityToken affinity, TimerTask fn) {
  if (sim_ != nullptr) {
    if (shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    // The wrapper (not the scheduler) enforces the shutdown contract: events
    // posted before Shutdown but due after it find open == false and drop
    // their callback without running it.
    auto state = sim_state_;
    state->pending.fetch_add(1, std::memory_order_relaxed);
    sim_->Post(when, affinity, [state, task = std::move(fn)]() mutable {
      state->pending.fetch_sub(1, std::memory_order_relaxed);
      if (!state->open.load(std::memory_order_acquire)) {
        return;
      }
      task();
      state->callbacks_run->Increment();
    });
    return true;
  }
  Shard& shard = *shards_[affinity % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shutdown_.load(std::memory_order_relaxed)) {
      return false;
    }
    shard.entries.push(Entry{when, shard.next_sequence++, affinity, std::move(fn)});
    shard.queue_depth->Add(1);
  }
  shard.cv.notify_one();
  return true;
}

void TimerService::Shutdown() {
  if (sim_ != nullptr) {
    const bool was_shut = shutdown_.exchange(true, std::memory_order_acq_rel);
    if (was_shut) {
      return;
    }
    // Mirror the threaded contract: timers already due still fire before
    // Shutdown returns; future ones are dropped by the wrapper's open flag.
    sim_->AdvanceTo(sim_->Now());
    sim_state_->open.store(false, std::memory_order_release);
    return;
  }
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    // Take-and-release the shard lock so a dispatcher is either not yet
    // waiting (and will see the flag) or inside the wait (and gets woken).
    { std::lock_guard<std::mutex> lock(shard->mu); }
    shard->cv.notify_all();
  }
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  for (auto& shard : shards_) {
    if (shard->dispatcher.joinable()) {
      shard->dispatcher.join();
    }
  }
  // Dispatchers are quiesced: nothing pushes to worker queues anymore. Close
  // lets each worker drain what was already dispatched (due timers still
  // fire), then exit.
  for (auto& worker : workers_) {
    worker->tasks.Close();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

size_t TimerService::PendingCount() const {
  if (sim_ != nullptr) {
    return sim_state_->pending.load(std::memory_order_relaxed);
  }
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  for (const auto& worker : workers_) {
    total += worker->tasks.Size();
  }
  return total;
}

void TimerService::DispatchLoop(Shard& shard) {
  // Due entries are drained in batches: one lock hold pops everything whose
  // deadline has passed (up to kMaxBatch), then routing — the lock-free
  // worker pushes — happens unlocked. Under load this turns a lock/unlock
  // cycle per timer into one per batch; schedulers blocked on shard.mu get
  // the whole routing window to refill the heap.
  // Heap pop order preserves the per-token contract: deadline order, FIFO
  // within equal deadlines, and batch routing keeps that order per worker.
  constexpr size_t kMaxBatch = 128;
  std::vector<Entry> batch;
  batch.reserve(kMaxBatch);
  std::unique_lock<std::mutex> lock(shard.mu);
  while (true) {
    if (shard.entries.empty()) {
      if (shutdown_.load(std::memory_order_relaxed)) {
        return;
      }
      shard.cv.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) || !shard.entries.empty();
      });
      continue;
    }
    const TimePoint next = shard.entries.top().when;
    const TimePoint now = SystemClock::Instance().Now();
    if (next > now) {
      if (shutdown_.load(std::memory_order_relaxed)) {
        // Drop timers that are not yet due.
        shard.queue_depth->Add(-static_cast<int64_t>(shard.entries.size()));
        return;
      }
      shard.cv.wait_until(lock, next);
      continue;
    }
    while (!shard.entries.empty() && batch.size() < kMaxBatch &&
           shard.entries.top().when <= now) {
      batch.push_back(std::move(const_cast<Entry&>(shard.entries.top())));
      shard.entries.pop();
    }
    shard.queue_depth->Add(-static_cast<int64_t>(batch.size()));
    lock.unlock();
    for (Entry& entry : batch) {
      shard.dispatch_lag->Record(
          ToMillis(std::chrono::duration_cast<Duration>(now - entry.when)));
      // Same affinity → same worker queue, so equal-deadline FIFO within a
      // token survives the handoff (this shard is the only producer of the
      // token's entries, and the worker executes its queue serially).
      workers_[entry.affinity % workers_.size()]->tasks.Push(std::move(entry.fn));
    }
    batch.clear();
    lock.lock();
  }
}

void TimerService::WorkerLoop(Worker& worker) {
  while (auto task = worker.tasks.PopWait()) {
    (*task)();
    callbacks_run_->Increment();
  }
}

}  // namespace antipode
