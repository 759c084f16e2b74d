#include "src/store/replicated_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sim.h"

namespace antipode {
namespace {

ReplicatedStoreOptions FastOptions(std::string name, double median_millis = 20.0) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = {Region::kUs, Region::kEu};
  options.replication.median_millis = median_millis;
  options.replication.sigma = 0.05;
  return options;
}

class ReplicatedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.05); }
  void TearDown() override { TimeScale::Set(1.0); }
};

// A store on a private deterministic timer engine, for tests that run in
// simulation (construct inside a ScopedSimMode).
struct SimStore {
  explicit SimStore(std::string name)
      : timers(TimerServiceOptions{.deterministic = true}),
        store(FastOptions(std::move(name)), &RegionTopology::Default(), &timers) {}
  TimerService timers;
  ReplicatedStore store;
};

// Exposes the protected typed-scan primitive.
class ScanningStore : public ReplicatedStore {
 public:
  using ReplicatedStore::ReplicatedStore;
  using ReplicatedStore::ScanPrefix;
};

TEST_F(ReplicatedStoreTest, WriteIsImmediatelyVisibleAtOrigin) {
  ReplicatedStore store(FastOptions("rs1"));
  const uint64_t version = store.Put(Region::kUs, "k", "v");
  EXPECT_EQ(version, 1u);
  auto entry = store.Get(Region::kUs, "k");
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_EQ(entry->bytes, "v");
  EXPECT_EQ(entry->version, 1u);
  EXPECT_EQ(entry->origin, Region::kUs);
}

TEST_F(ReplicatedStoreTest, RemoteReplicaLagsThenConverges) {
  ReplicatedStore store(FastOptions("rs2", 100.0));
  store.Put(Region::kUs, "k", "v");
  EXPECT_FALSE(static_cast<bool>(store.Get(Region::kEu, "k")));
  EXPECT_TRUE(store.WaitVisible(Region::kEu, "k", 1, std::chrono::seconds(5)).ok());
  auto entry = store.Get(Region::kEu, "k");
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_EQ(entry->bytes, "v");
}

TEST_F(ReplicatedStoreTest, VersionsAreMonotonicPerKey) {
  ReplicatedStore store(FastOptions("rs3"));
  EXPECT_EQ(store.Put(Region::kUs, "a", "1"), 1u);
  EXPECT_EQ(store.Put(Region::kUs, "a", "2"), 2u);
  EXPECT_EQ(store.Put(Region::kUs, "b", "1"), 1u);
  EXPECT_EQ(store.Put(Region::kEu, "a", "3"), 3u);
}

TEST_F(ReplicatedStoreTest, IsVisibleChecksWatermark) {
  ReplicatedStore store(FastOptions("rs4", 200.0));
  store.Put(Region::kUs, "k", "v");
  EXPECT_TRUE(store.IsVisible(Region::kUs, "k", 1));
  EXPECT_FALSE(store.IsVisible(Region::kEu, "k", 1));
  EXPECT_FALSE(store.IsVisible(Region::kUs, "k", 2));
}

TEST_F(ReplicatedStoreTest, NewerVersionSupersedesWait) {
  ReplicatedStore store(FastOptions("rs5", 30.0));
  store.Put(Region::kUs, "k", "v1");
  store.Put(Region::kUs, "k", "v2");
  // Waiting for version 1 must succeed even if the replica first applies v2.
  EXPECT_TRUE(store.WaitVisible(Region::kEu, "k", 1, std::chrono::seconds(5)).ok());
}

// The EU pause buffers US version 1; EU then writes version 2 itself. The
// heal replays version 1 into EU, which must ignore it as stale.
TEST_F(ReplicatedStoreTest, StaleReplayDoesNotRegress) {
  ScopedSimMode sim(3);
  SimStore s("rs-stale");
  s.store.fault_injector()->PauseStore(s.store.name(), Region::kEu);
  EXPECT_EQ(s.store.Put(Region::kUs, "k", "old"), 1u);
  s.store.DrainReplication();
  EXPECT_FALSE(s.store.IsVisible(Region::kEu, "k", 1));
  EXPECT_EQ(s.store.Put(Region::kEu, "k", "new"), 2u);
  s.store.fault_injector()->ResumeStore(s.store.name(), Region::kEu);
  s.store.DrainReplication();
  for (Region region : {Region::kEu, Region::kUs}) {
    auto entry = s.store.Get(region, "k");
    ASSERT_TRUE(static_cast<bool>(entry));
    EXPECT_EQ(entry->bytes, "new");
    EXPECT_EQ(entry->version, 2u);
  }
}

// Each region reads the version it applied, not the key's latest: with EU
// paused, EU keeps serving version 1 while US and StrongGet see version 2.
TEST_F(ReplicatedStoreTest, RegionReadsItsOwnAppliedVersion) {
  ScopedSimMode sim(5);
  SimStore s("rs-held");
  s.store.Put(Region::kUs, "k", "v1");
  s.store.DrainReplication();
  s.store.fault_injector()->PauseStore(s.store.name(), Region::kEu);
  s.store.Put(Region::kUs, "k", "v2");
  s.store.DrainReplication();

  auto eu = s.store.Get(Region::kEu, "k");
  ASSERT_TRUE(static_cast<bool>(eu));
  EXPECT_EQ(eu->bytes, "v1");
  EXPECT_EQ(eu->version, 1u);
  EXPECT_TRUE(s.store.IsVisible(Region::kEu, "k", 1));
  EXPECT_FALSE(s.store.IsVisible(Region::kEu, "k", 2));
  EXPECT_EQ(s.store.Get(Region::kUs, "k")->version, 2u);
  auto strong = s.store.StrongGet(Region::kEu, "k");
  ASSERT_TRUE(static_cast<bool>(strong));
  EXPECT_EQ(strong->bytes, "v2");

  s.store.fault_injector()->ResumeStore(s.store.name(), Region::kEu);
  EXPECT_EQ(s.store.Get(Region::kEu, "k")->version, 2u);
}

// Waiters share the key's record but are tagged by region: the synchronous
// US apply of a Put must not wake (or count) a waiter registered for EU.
TEST_F(ReplicatedStoreTest, ApplyWakesOnlyItsRegionsWaiters) {
  ScopedSimMode sim(9);
  SimStore s("rs-waiters");
  std::optional<Status> eu_result;
  s.store.WaitVisibleAsync(Region::kEu, "k", 1, TimePoint::max(),
                           [&eu_result](Status status) { eu_result = std::move(status); });
  s.store.Put(Region::kUs, "k", "v");
  EXPECT_FALSE(eu_result.has_value());
  EXPECT_EQ(s.store.TotalWakeups().applies, 1u);
  EXPECT_EQ(s.store.TotalWakeups().waiters_notified, 0u);

  s.store.DrainReplication();
  ASSERT_TRUE(eu_result.has_value());
  EXPECT_TRUE(eu_result->ok());
  EXPECT_EQ(s.store.TotalWakeups().applies, 2u);
  EXPECT_EQ(s.store.TotalWakeups().waiters_notified, 1u);
}

// Overwrites share one pooled block across the record's slots and release
// the superseded ones; teardown returns the rest.
TEST_F(ReplicatedStoreTest, EntryBlocksReturnToPool) {
  const size_t start = EntryBlockPool().stats().outstanding;
  {
    ScopedSimMode sim(13);
    SimStore s("rs-pool");
    for (int i = 0; i < 10; ++i) {
      s.store.Put(i % 2 == 0 ? Region::kUs : Region::kEu, "k", "v" + std::to_string(i));
    }
    s.store.DrainReplication();
    s.store.fault_injector()->PauseStore(s.store.name(), Region::kEu);
    s.store.Put(Region::kUs, "held", "buffered while EU is paused");
    s.store.DrainReplication();
    // "k": one block behind its latest and both applied slots. "held": one
    // block behind the US slot and the EU backlog.
    EXPECT_EQ(EntryBlockPool().stats().outstanding - start, 2u);
  }
  EXPECT_EQ(EntryBlockPool().stats().outstanding, start);
}

TEST_F(ReplicatedStoreTest, WaitVisibleTimesOut) {
  ReplicatedStore store(FastOptions("rs6", 100000.0));
  store.Put(Region::kUs, "k", "v");
  Status status = store.WaitVisible(Region::kEu, "k", 1, Millis(50));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ReplicatedStoreTest, WaitOnMissingKeyTimesOut) {
  ReplicatedStore store(FastOptions("rs7"));
  Status status = store.WaitVisible(Region::kUs, "never-written", 1, Millis(30));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ReplicatedStoreTest, StrongGetSeesLatestBeforeReplication) {
  ReplicatedStore store(FastOptions("rs8", 100000.0));
  store.Put(Region::kUs, "k", "v");
  auto entry = store.StrongGet(Region::kEu, "k");
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_EQ(entry->bytes, "v");
  EXPECT_FALSE(static_cast<bool>(store.Get(Region::kEu, "k")));
}

TEST_F(ReplicatedStoreTest, ScanPrefixReturnsMatchingEntries) {
  ScanningStore store(FastOptions("rs9"));
  store.Put(Region::kUs, "t/1", "a");
  store.Put(Region::kUs, "t/2", "b");
  store.Put(Region::kUs, "u/1", "c");
  EXPECT_EQ(store.ScanPrefix(Region::kUs, "t/").size(), 2u);
  EXPECT_EQ(store.ScanPrefix(Region::kUs, "u/").size(), 1u);
  EXPECT_EQ(store.ScanPrefix(Region::kUs, "v/").size(), 0u);
  EXPECT_EQ(store.ScanPrefix(Region::kUs, "").size(), 3u);
}

// Keys hash across every shard; the scan must still come back key-sorted,
// and a region sees only what it has applied.
TEST_F(ReplicatedStoreTest, ScanPrefixStaysKeySortedAcrossShards) {
  ScopedSimMode sim(17);
  TimerService timers(TimerServiceOptions{.deterministic = true});
  ScanningStore store(FastOptions("rs-scan"), &RegionTopology::Default(), &timers);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("t/" + std::to_string(i));
  }
  std::mt19937 rng(17);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (const std::string& key : keys) {
    store.Put(Region::kUs, key, key);
    store.Put(Region::kUs, "u/" + key, "other table");
  }
  EXPECT_TRUE(store.ScanPrefix(Region::kEu, "t/").empty());  // nothing shipped yet
  store.DrainReplication();
  std::sort(keys.begin(), keys.end());
  for (Region region : {Region::kUs, Region::kEu}) {
    const std::vector<EntryHandle> scan = store.ScanPrefix(region, "t/");
    ASSERT_EQ(scan.size(), keys.size());
    for (size_t i = 0; i < scan.size(); ++i) {
      EXPECT_EQ(scan[i]->key, keys[i]);
      EXPECT_EQ(scan[i]->bytes, keys[i]);
    }
  }
}

TEST_F(ReplicatedStoreTest, ApplyHookFiresForEveryRegion) {
  ReplicatedStore store(FastOptions("rs10", 20.0));
  std::atomic<int> us_applies{0};
  std::atomic<int> eu_applies{0};
  store.SetApplyHook([&](Region region, const EntryHandle&) {
    (region == Region::kUs ? us_applies : eu_applies).fetch_add(1);
  });
  store.Put(Region::kUs, "k", "v");
  store.DrainReplication();
  EXPECT_EQ(us_applies.load(), 1);
  EXPECT_EQ(eu_applies.load(), 1);
}

TEST_F(ReplicatedStoreTest, MetricsCountWritesAndReads) {
  ReplicatedStore store(FastOptions("rs11"));
  store.Put(Region::kUs, "k", std::string(100, 'x'));
  store.Get(Region::kUs, "k");
  store.Get(Region::kUs, "missing");
  EXPECT_EQ(store.metrics().writes(), 1u);
  EXPECT_EQ(store.metrics().reads(), 2u);
  EXPECT_EQ(store.metrics().read_misses(), 1u);
  EXPECT_NEAR(store.metrics().MeanObjectBytes(), 100.0, 5.0);
}

TEST_F(ReplicatedStoreTest, PerWriteOverheadShowsInMetrics) {
  auto options = FastOptions("rs12");
  options.per_write_overhead_bytes = 1000;
  ReplicatedStore store(std::move(options));
  store.Put(Region::kUs, "k", std::string(100, 'x'));
  EXPECT_NEAR(store.metrics().MeanObjectBytes(), 1100.0, 50.0);
}

TEST_F(ReplicatedStoreTest, ExtraOverheadPerPut) {
  ReplicatedStore store(FastOptions("rs13"));
  store.Put(Region::kUs, "k", std::string(100, 'x'), 500);
  EXPECT_NEAR(store.metrics().MeanObjectBytes(), 600.0, 25.0);
}

TEST_F(ReplicatedStoreTest, DrainReplicationWaitsForAllApplies) {
  ReplicatedStore store(FastOptions("rs14", 50.0));
  for (int i = 0; i < 20; ++i) {
    store.Put(Region::kUs, "k" + std::to_string(i), "v");
  }
  store.DrainReplication();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.IsVisible(Region::kEu, "k" + std::to_string(i), 1));
  }
}

TEST_F(ReplicatedStoreTest, ConcurrentWritersGetDistinctVersions) {
  ReplicatedStore store(FastOptions("rs15"));
  std::vector<std::thread> threads;
  std::vector<uint64_t> versions(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&store, &versions, t] { versions[static_cast<size_t>(t)] = store.Put(Region::kUs, "hot", "v"); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::sort(versions.begin(), versions.end());
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i], i + 1);
  }
}

TEST_F(ReplicatedStoreTest, ReplicationLagRecorded) {
  ReplicatedStore store(FastOptions("rs16", 80.0));
  store.Put(Region::kUs, "k", "v");
  const Histogram lag = store.metrics().ReplicationLag();
  EXPECT_EQ(lag.count(), 1u);
  EXPECT_GT(lag.Mean(), 50.0);  // base 80ms + WAN
  store.DrainReplication();
}

// Shipments of one key to one region carry the same timer affinity, so their
// applies execute serially in deadline order. With a deterministic profile
// (sigma = 0, WAN multiplier = 0) deadlines are monotonic in issue order and
// the EU apply hook must observe versions 1..N exactly — no interleaving
// worker may ever deliver version v after v+1.
TEST_F(ReplicatedStoreTest, PerKeyRegionAppliesStayOrdered) {
  auto options = FastOptions("rs17", 10.0);
  options.replication.sigma = 0.0;
  options.replication.network_delay_multiplier = 0.0;
  ReplicatedStore store(std::move(options));
  std::mutex mu;
  std::vector<uint64_t> eu_versions;
  store.SetApplyHook([&](Region region, const EntryHandle& entry) {
    if (region == Region::kEu && entry->key == "hot") {
      std::lock_guard<std::mutex> lock(mu);
      eu_versions.push_back(entry->version);
    }
  });
  constexpr uint64_t kWrites = 100;
  for (uint64_t i = 0; i < kWrites; ++i) {
    store.Put(Region::kUs, "hot", "v" + std::to_string(i));
  }
  store.DrainReplication();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(eu_versions.size(), kWrites);
  for (uint64_t i = 0; i < kWrites; ++i) {
    EXPECT_EQ(eu_versions[i], i + 1);
  }
}

// TSan target for the atomic in-flight accounting: writers racing a drainer
// (and each other) must never lose a shipment or let DrainReplication return
// while applies are outstanding. Named *Stress* for the tsan ctest preset.
TEST(ReplicatedStoreStressTest, DrainUnderLoad) {
  TimeScale::Set(0.02);
  ReplicatedStoreOptions options;
  options.name = "drain-stress";
  options.regions = {Region::kUs, Region::kEu, Region::kSg};
  options.replication.median_millis = 30.0;
  options.replication.sigma = 0.3;
  ReplicatedStore store(std::move(options));

  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 50;
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kWritesPerWriter; ++i) {
        store.Put(Region::kUs, "w" + std::to_string(w) + "/k" + std::to_string(i), "v");
      }
    });
  }
  // Drain concurrently with the writers: each return only claims that the
  // shipments issued before it completed, which the final check verifies.
  std::thread drainer([&store, &writers_done] {
    while (!writers_done.load(std::memory_order_acquire)) {
      store.DrainReplication();
    }
  });
  for (auto& writer : writers) {
    writer.join();
  }
  writers_done.store(true, std::memory_order_release);
  drainer.join();
  store.DrainReplication();
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kWritesPerWriter; ++i) {
      const std::string key = "w" + std::to_string(w) + "/k" + std::to_string(i);
      EXPECT_TRUE(store.IsVisible(Region::kEu, key, 1));
      EXPECT_TRUE(store.IsVisible(Region::kSg, key, 1));
    }
  }
  EXPECT_EQ(store.metrics().writes(), static_cast<uint64_t>(kWriters * kWritesPerWriter));
  TimeScale::Set(1.0);
}

}  // namespace
}  // namespace antipode
