// Concurrency stress: many writers, barriers, sessions, and dry-run probes
// hammering the same stores from multiple threads.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/antipode/antipode.h"
#include "src/common/random.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.005); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(StressTest, ConcurrentWritersAndBarriers) {
  auto options = KvStore::DefaultOptions("stress1", kRegions);
  options.replication.median_millis = 30.0;
  options.replication.sigma = 0.5;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        RequestContext context;
        ScopedContext scoped(std::move(context));
        LineageApi::Root();
        const std::string key =
            "k" + std::to_string(t) + "-" + std::to_string(rng.NextBelow(16));
        shim.WriteCtx(Region::kUs, key, "v" + std::to_string(i));
        Status status = BarrierCtx(Region::kEu, BarrierOptions{.registry = &registry});
        if (!status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Post-barrier, the write (or newer) must be readable remotely.
        if (!shim.Read(Region::kEu, key).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(StressTest, SharedSessionAcrossThreads) {
  auto options = KvStore::DefaultOptions("stress2", kRegions);
  options.replication.median_millis = 20.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Session session("shared");

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        RequestContext context;
        ScopedContext scoped(std::move(context));
        LineageApi::Root();
        shim.WriteCtx(Region::kUs, "s" + std::to_string(t) + "-" + std::to_string(i), "v");
        session.AbsorbCtx();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(session.NumDeps(), 6u * 30u);
  ASSERT_TRUE(session.GuardRead(Region::kEu, BarrierOptions{.registry = &registry}).ok());
  EXPECT_TRUE(session.IsReadConsistent(Region::kEu, &registry));
}

TEST_F(StressTest, DryRunsRaceWithReplication) {
  auto options = KvStore::DefaultOptions("stress3", kRegions);
  options.replication.median_millis = 10.0;
  options.replication.sigma = 1.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  std::atomic<bool> stop{false};
  std::atomic<int> probes{0};
  std::thread prober([&] {
    while (!stop.load()) {
      Lineage lineage(1);
      lineage.Append(WriteId{"stress3", "hot", 1});
      (void)BarrierDryRun(lineage, Region::kEu, &registry);
      probes.fetch_add(1);
    }
  });
  // Start handshake: the writes must overlap the prober, not finish before
  // its thread is first scheduled.
  while (probes.load() == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 300; ++i) {
    shim.Write(Region::kUs, "hot", "v" + std::to_string(i), Lineage(1));
  }
  store.DrainReplication();
  stop = true;
  prober.join();
  EXPECT_GT(probes.load(), 0);
  // After the drain, the dry run must be stable-consistent.
  Lineage lineage(1);
  lineage.Append(WriteId{"stress3", "hot", 300});
  EXPECT_TRUE(BarrierDryRun(lineage, Region::kEu, &registry).consistent);
}

TEST_F(StressTest, ManyStoresOneBarrier) {
  constexpr int kStores = 12;
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<KvShim>> shims;
  ShimRegistry registry;
  for (int i = 0; i < kStores; ++i) {
    auto options = KvStore::DefaultOptions("stress4-" + std::to_string(i), kRegions);
    options.replication.median_millis = 10.0 + 10.0 * i;
    options.replication.sigma = 0.3;
    stores.push_back(std::make_unique<KvStore>(std::move(options)));
    shims.push_back(std::make_unique<KvShim>(stores.back().get()));
    registry.Register(shims.back().get());
  }
  RequestContext context;
  ScopedContext scoped(std::move(context));
  LineageApi::Root();
  for (int i = 0; i < kStores; ++i) {
    shims[static_cast<size_t>(i)]->WriteCtx(Region::kUs, "k", "v");
  }
  ASSERT_EQ(LineageApi::Current()->Size(), static_cast<size_t>(kStores));
  ASSERT_TRUE(BarrierCtx(Region::kEu, BarrierOptions{.registry = &registry}).ok());
  for (int i = 0; i < kStores; ++i) {
    EXPECT_TRUE(stores[static_cast<size_t>(i)]->IsVisible(Region::kEu, "k", 1)) << i;
  }
}

}  // namespace
}  // namespace antipode
