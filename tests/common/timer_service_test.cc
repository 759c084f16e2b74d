#include "src/common/timer_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace antipode {
namespace {

TEST(TimerServiceTest, FiresAfterDelay) {
  TimerService timers;
  std::atomic<bool> fired{false};
  const TimePoint scheduled = SystemClock::Instance().Now();
  std::atomic<int64_t> fired_after_us{0};
  timers.ScheduleAfter(Millis(20), [&] {
    fired_after_us = ToMicros(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - scheduled));
    fired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(fired.load());
  EXPECT_GE(fired_after_us.load(), 19000);
  timers.Shutdown();
}

TEST(TimerServiceTest, ZeroDelayFiresPromptly) {
  TimerService timers;
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(Micros(0), [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(fired.load());
  timers.Shutdown();
}

TEST(TimerServiceTest, FiresInDeadlineOrder) {
  TimerService timers;
  std::mutex mu;
  std::vector<int> order;
  timers.ScheduleAfter(Millis(60), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(3);
  });
  timers.ScheduleAfter(Millis(20), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  timers.ScheduleAfter(Millis(40), [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  timers.Shutdown();
}

// Equal-deadline FIFO is a per-affinity-token guarantee: entries sharing a
// token fire in schedule order; default (round-robin) tokens promise nothing
// across calls.
TEST(TimerServiceTest, EqualDeadlinesFireFifoPerAffinity) {
  TimerService timers;
  const TimePoint when = SystemClock::Instance().Now() + Millis(20);
  constexpr TimerService::AffinityToken kToken = 42;
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    timers.ScheduleAt(when, kToken, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
  timers.Shutdown();
}

// Two interleaved affinity streams with one shared deadline: each stream's
// callbacks run in its own schedule order even though the streams themselves
// may interleave arbitrarily (different shards/workers).
TEST(TimerServiceTest, InterleavedAffinityStreamsKeepPerTokenOrder) {
  TimerService timers(TimerServiceOptions{.num_shards = 4, .num_workers = 4});
  // Already due: Shutdown below must still fire every one of them.
  const TimePoint when = SystemClock::Instance().Now();
  constexpr int kPerStream = 100;
  std::mutex mu;
  std::vector<int> stream_a;
  std::vector<int> stream_b;
  for (int i = 0; i < kPerStream; ++i) {
    timers.ScheduleAt(when, /*affinity=*/1, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      stream_a.push_back(i);
    });
    timers.ScheduleAt(when, /*affinity=*/2, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      stream_b.push_back(i);
    });
  }
  timers.Shutdown();  // due timers still fire before Shutdown returns
  ASSERT_EQ(stream_a.size(), static_cast<size_t>(kPerStream));
  ASSERT_EQ(stream_b.size(), static_cast<size_t>(kPerStream));
  for (int i = 0; i < kPerStream; ++i) {
    EXPECT_EQ(stream_a[static_cast<size_t>(i)], i);
    EXPECT_EQ(stream_b[static_cast<size_t>(i)], i);
  }
}

// Callback execution is decoupled from dispatch: two due callbacks must be
// able to run at the same time. Each callback blocks until the other has
// started; a serial engine would deadlock-then-timeout on the first.
TEST(TimerServiceTest, ShardParallelDispatch) {
  TimerService timers(TimerServiceOptions{.num_shards = 4, .num_workers = 4});
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> overlapped{0};
  for (int i = 0; i < 2; ++i) {
    // Distinct affinity tokens route to distinct workers.
    timers.ScheduleAfter(Micros(0), static_cast<TimerService::AffinityToken>(i), [&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(5), [&] { return started == 2; })) {
        overlapped.fetch_add(1);
      }
    });
  }
  timers.Shutdown();
  EXPECT_EQ(overlapped.load(), 2) << "due callbacks on different shards did not overlap";
}

// Shutdown lets already-due callbacks run to completion (and drops only the
// not-yet-due), even when they were dispatched microseconds earlier.
TEST(TimerServiceTest, ShutdownWithDueTimersStillFires) {
  TimerService timers(TimerServiceOptions{.num_shards = 4, .num_workers = 2});
  std::atomic<int> fired{0};
  constexpr int kDue = 200;
  for (int i = 0; i < kDue; ++i) {
    timers.ScheduleAfter(Micros(0), [&] { fired.fetch_add(1); });
  }
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)),
                       [&] { fired.fetch_add(1000); });
  timers.Shutdown();
  EXPECT_EQ(fired.load(), kDue);
}

TEST(TimerServiceTest, ZeroWorkersResolvesToOneWorker) {
  // No inline mode: a zero-worker request still gets one callback worker,
  // so no callback ever runs on a shard dispatcher.
  TimerService timers(TimerServiceOptions{.num_shards = 1, .num_workers = 0});
  EXPECT_EQ(timers.num_workers(), 1u);
  std::atomic<int> fired{0};
  for (int i = 0; i < 100; ++i) {
    timers.ScheduleAfter(Micros(0), [&] { fired.fetch_add(1); });
  }
  timers.Shutdown();
  EXPECT_EQ(fired.load(), 100);
}

// TSan target: schedulers racing Shutdown must not corrupt the engine, and
// every accepted callback (ScheduleAfter returned true) must still run if it
// was due. Named *Stress* so the tsan ctest preset picks it up.
TEST(TimerServiceStressTest, ConcurrentScheduleAndShutdown) {
  for (int round = 0; round < 5; ++round) {
    TimerService timers(TimerServiceOptions{.num_shards = 4, .num_workers = 4});
    std::atomic<int> accepted{0};
    std::atomic<int> fired{0};
    std::vector<std::thread> schedulers;
    for (int t = 0; t < 4; ++t) {
      schedulers.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          if (timers.ScheduleAfter(Micros(0), [&] { fired.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread stopper([&] { timers.Shutdown(); });
    for (auto& thread : schedulers) {
      thread.join();
    }
    stopper.join();
    timers.Shutdown();  // idempotent
    EXPECT_EQ(fired.load(), accepted.load());
  }
}

TEST(TimerServiceTest, ManyConcurrentTimers) {
  TimerService timers;
  std::atomic<int> fired{0};
  for (int i = 0; i < 1000; ++i) {
    timers.ScheduleAfter(Millis(1 + i % 20), [&] { fired.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() < 1000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1000);
  timers.Shutdown();
}

TEST(TimerServiceTest, ShutdownDropsFutureTimers) {
  TimerService timers;
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)),
                       [&] { fired = true; });
  timers.Shutdown();
  EXPECT_FALSE(fired.load());
}

TEST(TimerServiceTest, ScheduleAfterShutdownIsNoOp) {
  TimerService timers;
  timers.Shutdown();
  std::atomic<bool> fired{false};
  timers.ScheduleAfter(Micros(1), [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fired.load());
}

TEST(TimerServiceTest, PendingCountTracksQueue) {
  TimerService timers;
  EXPECT_EQ(timers.PendingCount(), 0u);
  timers.ScheduleAfter(std::chrono::duration_cast<Duration>(std::chrono::seconds(60)), [] {});
  EXPECT_EQ(timers.PendingCount(), 1u);
  timers.Shutdown();
}

TEST(TimerServiceTest, SharedInstanceIsSingleton) {
  EXPECT_EQ(&TimerService::Shared(), &TimerService::Shared());
}

}  // namespace
}  // namespace antipode
