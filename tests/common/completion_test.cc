// Completion / BlockUntil: the one pump-or-park wait every blocking call
// (barrier, store wait, replication drain, RPC response) goes through — real
// condition-variable parking outside simulation, virtual-time pumping inside.

#include "src/common/sim.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/common/clock.h"

namespace antipode {
namespace {

TEST(CompletionTest, SetBeforeWaitReturnsImmediately) {
  Completion<std::string> done;
  EXPECT_TRUE(done.Set("value"));
  EXPECT_TRUE(done.WaitUntil(TimePoint::max()));
  EXPECT_EQ(done.Take(), "value");
}

TEST(CompletionTest, FirstSetWins) {
  Completion<int> done;
  EXPECT_TRUE(done.Set(1));
  EXPECT_FALSE(done.Set(2));
  ASSERT_TRUE(done.WaitUntil(TimePoint::max()));
  EXPECT_EQ(done.Take(), 1);
}

TEST(CompletionTest, RealTimeTimeoutReturnsFalse) {
  Completion<int> done;
  const TimePoint start = SystemClock::Instance().Now();
  EXPECT_FALSE(done.WaitUntil(start + std::chrono::milliseconds(20)));
  EXPECT_GE(SystemClock::Instance().Now() - start, std::chrono::milliseconds(20));
  // A late Set still lands; a later wait sees it.
  EXPECT_TRUE(done.Set(7));
  EXPECT_TRUE(done.WaitUntil(start));
  EXPECT_EQ(done.Take(), 7);
}

TEST(CompletionTest, SetFromAnotherThreadWakesParkedWaiter) {
  auto done = std::make_shared<Completion<int>>();
  std::thread setter([done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    done->Set(42);
  });
  EXPECT_TRUE(done->WaitUntil(TimePoint::max()));
  EXPECT_EQ(done->Take(), 42);
  setter.join();
}

TEST(CompletionTest, SimTimeoutReturnsExactlyAtVirtualDeadline) {
  ScopedSimMode sim(21);
  SimScheduler& sched = sim.scheduler();
  const TimePoint deadline = sched.Now() + std::chrono::milliseconds(50);
  Completion<int> done;
  // Due after the deadline: the wait must not run it.
  sched.Post(deadline + std::chrono::milliseconds(1), 1, [&done] { done.Set(1); });
  EXPECT_FALSE(done.WaitUntil(deadline));
  EXPECT_EQ(GlobalClock().Now(), deadline);
  EXPECT_EQ(sched.PendingEvents(), 1u);
}

TEST(CompletionTest, SimEventSetsValueAtItsVirtualTime) {
  ScopedSimMode sim(22);
  SimScheduler& sched = sim.scheduler();
  const TimePoint when = sched.Now() + std::chrono::milliseconds(30);
  Completion<int> done;
  sched.Post(when, 1, [&done] { done.Set(5); });
  ASSERT_TRUE(done.WaitUntil(when + std::chrono::seconds(1)));
  EXPECT_EQ(done.Take(), 5);
  EXPECT_EQ(GlobalClock().Now(), when);
}

TEST(CompletionTest, SimQuiescentUnboundedWaitReportsDeadlock) {
  ScopedSimMode sim(23);
  const TimePoint before = GlobalClock().Now();
  Completion<int> done;
  EXPECT_FALSE(done.WaitUntil(TimePoint::max()));
  EXPECT_EQ(GlobalClock().Now(), before);
}

}  // namespace
}  // namespace antipode
