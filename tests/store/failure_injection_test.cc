// Failure injection: stalled replication (partitioned / lagging replicas)
// and how the stack behaves around it.

#include <gtest/gtest.h>

#include <atomic>
#include <future>

#include "src/antipode/barrier.h"
#include "src/antipode/kv_shim.h"
#include "src/common/sim.h"
#include "src/common/thread_pool.h"
#include "src/common/timer_service.h"
#include "src/store/kv_store.h"
#include "src/store/queue_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

ReplicatedStoreOptions FastKv(const std::string& name) {
  auto options = KvStore::DefaultOptions(name, kRegions);
  options.replication.median_millis = 5.0;
  options.replication.sigma = 0.05;
  return options;
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.02); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(FailureInjectionTest, PausedReplicaDoesNotApply) {
  KvStore store(FastKv("fi1"));
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  EXPECT_TRUE(store.fault_injector()->IsStorePaused(store.name(), Region::kEu));
  store.Set(Region::kUs, "k", "v");
  store.DrainReplication();  // the timer fired, but the apply was buffered
  EXPECT_FALSE(store.IsVisible(Region::kEu, "k", 1));
  EXPECT_TRUE(store.IsVisible(Region::kUs, "k", 1));
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
}

TEST_F(FailureInjectionTest, ResumeAppliesBacklogInOrder) {
  KvStore store(FastKv("fi2"));
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  for (int i = 0; i < 5; ++i) {
    store.Set(Region::kUs, "k", "v" + std::to_string(i));
  }
  store.DrainReplication();
  EXPECT_FALSE(store.IsVisible(Region::kEu, "k", 1));
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 5));
  EXPECT_EQ(store.GetValue(Region::kEu, "k"), "v4");
}

TEST_F(FailureInjectionTest, BarrierBlocksThroughStallAndRecovers) {
  KvStore store(FastKv("fi3"));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  store.DrainReplication();

  auto barrier_future = std::async(std::launch::async, [&] {
    return Barrier(lineage, Region::kEu, BarrierOptions{.registry = &registry});
  });
  // Barrier must still be blocked while the stall lasts.
  EXPECT_EQ(barrier_future.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
  ASSERT_EQ(barrier_future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_TRUE(barrier_future.get().ok());
}

TEST_F(FailureInjectionTest, BarrierTimeoutDuringOutage) {
  KvStore store(FastKv("fi4"));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  Status status = Barrier(lineage, Region::kEu,
                          BarrierOptions{.wait = {.timeout = Millis(50)}, .registry = &registry});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
}

TEST_F(FailureInjectionTest, StrongReadsUnaffectedByStall) {
  KvStore store(FastKv("fi5"));
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  store.Set(Region::kUs, "k", "v");
  auto entry = store.StrongGet(Region::kEu, "k");
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_EQ(entry->bytes, "v");
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
}

TEST_F(FailureInjectionTest, QueueDeliveryResumesAfterStall) {
  QueueStore queue(QueueStore::DefaultOptions("fi6", kRegions));
  ThreadPool pool(1, "consumer");
  std::atomic<int> received{0};
  queue.Subscribe(Region::kEu, "q", &pool, [&](const BrokerMessage&) { received.fetch_add(1); });

  queue.fault_injector()->PauseStore(queue.name(), Region::kEu);
  queue.Publish(Region::kUs, "q", "m1");
  queue.Publish(Region::kUs, "q", "m2");
  queue.DrainReplication();
  EXPECT_EQ(received.load(), 0);

  queue.fault_injector()->ResumeStore(queue.name(), Region::kEu);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), 2);
  pool.Shutdown();
}

// Runs in simulation on a private deterministic timer engine. The drain
// before the EU check lands every shipment, so the EU entry is provably
// buffered by the stall (not merely still in flight) when Resume replays it.
TEST_F(FailureInjectionTest, StallOnOneRegionDoesNotAffectOthers) {
  ScopedSimMode sim(7);
  TimerServiceOptions timer_options;
  timer_options.deterministic = true;
  TimerService timers(timer_options);
  auto options = KvStore::DefaultOptions("fi7", {Region::kUs, Region::kEu, Region::kSg});
  options.replication.median_millis = 5.0;
  options.replication.sigma = 0.05;
  KvStore store(std::move(options), &RegionTopology::Default(), &timers);
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  store.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(store.WaitVisible(Region::kSg, "k", 1, std::chrono::seconds(5)).ok());
  store.DrainReplication();
  EXPECT_FALSE(store.IsVisible(Region::kEu, "k", 1));
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 1));
}

}  // namespace
}  // namespace antipode
