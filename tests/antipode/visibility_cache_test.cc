// Visibility cache: unit coverage of the watermark/per-key split, the barrier
// fast path (warm vs cold, BarrierGlobal and BarrierDryRun across 3 regions),
// batched waits, lineage pruning, and a TSan-labelled stress test racing
// cache population (applies) against barrier lookups.

#include "src/antipode/visibility_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/antipode/barrier.h"
#include "src/antipode/kv_shim.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kThreeRegions = {Region::kUs, Region::kEu, Region::kSg};

ReplicatedStoreOptions SlowKv(const std::string& name, double median_millis,
                              const std::vector<Region>& regions = kThreeRegions) {
  auto options = KvStore::DefaultOptions(name, regions);
  options.replication.median_millis = median_millis;
  options.replication.sigma = 0.05;
  return options;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Default().GetCounter(name)->value();
}

class VisibilityCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(VisibilityCacheTest, PerKeyHitAndMiss) {
  StoreVisibility vis("s", {Region::kUs, Region::kEu});
  EXPECT_FALSE(vis.IsVisible(Region::kUs, "k", 1));
  vis.NoteApply(Region::kUs, "k", 1, 1);
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 1));
  EXPECT_FALSE(vis.IsVisible(Region::kEu, "k", 1));  // not applied there yet
  EXPECT_FALSE(vis.IsVisible(Region::kUs, "k", 2));  // newer version unknown
  // A hit on version N covers every older version of the key.
  vis.NoteApply(Region::kUs, "k", 5, 2);
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 3));
}

TEST_F(VisibilityCacheTest, UntrackedRegionNeverHits) {
  StoreVisibility vis("s", {Region::kUs, Region::kEu});
  vis.NoteApply(Region::kUs, "k", 1, 1);
  EXPECT_FALSE(vis.IsVisible(Region::kSg, "k", 1));
}

TEST_F(VisibilityCacheTest, WatermarkAdvancesOnContiguousPrefix) {
  StoreVisibility vis("s", {Region::kUs});
  vis.NoteApply(Region::kUs, "a", 1, 1);
  EXPECT_EQ(vis.watermark(Region::kUs), 1u);
  // Out-of-order arrival: seq 3 parks until seq 2 fills the gap.
  vis.NoteApply(Region::kUs, "c", 1, 3);
  EXPECT_EQ(vis.watermark(Region::kUs), 1u);
  vis.NoteApply(Region::kUs, "b", 1, 2);
  EXPECT_EQ(vis.watermark(Region::kUs), 3u);
  // Duplicate notifications do not double-advance.
  vis.NoteApply(Region::kUs, "b", 1, 2);
  EXPECT_EQ(vis.watermark(Region::kUs), 3u);
}

// The ordered-map algorithm the tracker's min-heap replaced, kept as the
// reference model: seqs park until the contiguous prefix reaches them, and
// the frontier is the highest stamp in that prefix (hlc 0 = unstamped).
struct SeqTrackerModel {
  uint64_t next_expected = 1;
  std::map<uint64_t, uint64_t> pending;
  uint64_t watermark = 0;
  uint64_t frontier = 0;

  void Apply(uint64_t seq, uint64_t hlc) {
    if (seq < next_expected) return;
    if (seq != next_expected) {
      pending.emplace(seq, hlc);
      return;
    }
    uint64_t next = seq + 1;
    frontier = std::max(frontier, hlc);
    for (auto it = pending.begin(); it != pending.end() && it->first == next;
         it = pending.erase(it)) {
      ++next;
      frontier = std::max(frontier, it->second);
    }
    next_expected = next;
    watermark = next - 1;
  }
  bool Covers(uint64_t cut, uint64_t issued) const {
    return frontier >= cut || watermark >= issued;
  }
};

// Seeded differential test of the watermark tracker: shuffled seqs with gaps,
// duplicates and unstamped writes must move watermark and frontier exactly as
// the model does after every call, and frontier waiters must fire at the same
// step the model's condition first holds.
TEST_F(VisibilityCacheTest, SeqTrackerMatchesOrderedMapModel) {
  constexpr uint64_t kSeqs = 600;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Stamps climb with seq; about a fifth of the writes are unstamped.
    std::vector<uint64_t> hlc(kSeqs + 1, 0);
    uint64_t stamp = 1000;
    for (uint64_t seq = 1; seq <= kSeqs; ++seq) {
      stamp += 1 + rng.NextBelow(5);
      hlc[seq] = rng.NextBelow(5) == 0 ? 0 : stamp;
    }
    // Arrival order: every seq displaced by a random jitter (gaps that fill
    // later), about a tenth delivered twice, and on odd seeds the last few
    // never delivered (a gap that stays open, so only the frontier can cover).
    const uint64_t delivered = seed % 2 == 1 ? kSeqs - 5 : kSeqs;
    std::vector<std::pair<uint64_t, uint64_t>> arrivals;  // (arrival time, seq)
    for (uint64_t seq = 1; seq <= delivered; ++seq) {
      arrivals.emplace_back(seq * 4 + rng.NextBelow(64), seq);
      if (rng.NextBelow(10) == 0) {
        arrivals.emplace_back(seq * 4 + rng.NextBelow(256), seq);
      }
    }
    std::sort(arrivals.begin(), arrivals.end());

    StoreVisibility vis("tracker-model", {Region::kUs});
    vis.NoteIssued(kSeqs, hlc[kSeqs]);
    SeqTrackerModel model;
    struct Waiter {
      uint64_t cut;
      int model_step;
      std::shared_ptr<int> fired_step;
    };
    std::vector<Waiter> waiters;
    int step = 0;
    for (const auto& [arrival, seq] : arrivals) {
      ++step;
      if (rng.NextBelow(8) == 0) {
        const uint64_t cut = 1000 + rng.NextBelow(stamp - 1000 + 16);
        auto fired = std::make_shared<int>(-1);
        auto waiter = vis.AwaitFrontier(Region::kUs, cut, [fired, &step](Status status) {
          EXPECT_TRUE(status.ok());
          *fired = step;
        });
        if (waiter == nullptr) *fired = step;  // already covered at registration
        waiters.push_back({cut, model.Covers(cut, kSeqs) ? step : -1, fired});
      }
      vis.NoteApply(Region::kUs, "k" + std::to_string(seq), 1, seq, hlc[seq]);
      model.Apply(seq, hlc[seq]);
      ASSERT_EQ(vis.watermark(Region::kUs), model.watermark) << "step " << step;
      ASSERT_EQ(vis.FrontierHlc(Region::kUs), model.frontier) << "step " << step;
      for (Waiter& waiter : waiters) {
        if (waiter.model_step < 0 && model.Covers(waiter.cut, kSeqs)) waiter.model_step = step;
        ASSERT_EQ(*waiter.fired_step, waiter.model_step) << "cut " << waiter.cut;
      }
    }
  }
}

TEST_F(VisibilityCacheTest, WatermarkCoversOldWritesOfAKey) {
  StoreVisibility vis("s", {Region::kUs, Region::kEu});
  // Key written twice at US (seqs 1, 2); EU has only seen the newer apply.
  vis.NoteApply(Region::kUs, "k", 1, 1);
  vis.NoteApply(Region::kUs, "k", 2, 2);
  vis.NoteApply(Region::kEu, "k", 2, 2);
  // EU's per-key fact covers version 1 directly (visible[eu] = 2 >= 1).
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "k", 1));
  // Watermark coverage: a *different* key's old write, known only through the
  // latest-write seq sitting at or below the watermark.
  vis.NoteApply(Region::kUs, "x", 1, 3);
  vis.NoteApply(Region::kEu, "x", 1, 3);
  EXPECT_EQ(vis.watermark(Region::kEu), 0u);  // seq 1 never applied at EU...
  vis.NoteApply(Region::kEu, "k", 1, 1);      // ...until the stale replay lands
  EXPECT_EQ(vis.watermark(Region::kEu), 3u);
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "x", 1));
}

TEST_F(VisibilityCacheTest, NoteVisibleFeedsPerKeyOnly) {
  StoreVisibility vis("s", {Region::kUs});
  vis.NoteVisible(Region::kUs, "k", 4);
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 4));
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 2));
  EXPECT_EQ(vis.watermark(Region::kUs), 0u);  // seq unknown: watermark untouched
}

TEST_F(VisibilityCacheTest, VisibleEverywhereRequiresAllRegions) {
  StoreVisibility vis("s", {Region::kUs, Region::kEu, Region::kSg});
  vis.NoteApply(Region::kUs, "k", 1, 1);
  vis.NoteApply(Region::kEu, "k", 1, 1);
  EXPECT_FALSE(vis.IsVisibleEverywhere("k", 1));
  vis.NoteApply(Region::kSg, "k", 1, 1);
  EXPECT_TRUE(vis.IsVisibleEverywhere("k", 1));
  EXPECT_EQ(vis.MinWatermark(), 1u);
}

TEST_F(VisibilityCacheTest, ReRegisterStartsCold) {
  VisibilityCache cache;
  auto first = cache.Register("s", {Region::kUs});
  first->NoteApply(Region::kUs, "k", 1, 1);
  EXPECT_TRUE(cache.Find("s")->IsVisible(Region::kUs, "k", 1));
  // A re-created same-named store must not inherit the old facts.
  auto second = cache.Register("s", {Region::kUs});
  EXPECT_FALSE(cache.Find("s")->IsVisible(Region::kUs, "k", 1));
  // Unregistering the *stale* handle must not evict the live one.
  cache.Unregister(first);
  EXPECT_EQ(cache.Find("s"), second);
  cache.Unregister(second);
  EXPECT_EQ(cache.Find("s"), nullptr);
}

TEST_F(VisibilityCacheTest, StorePopulatesCacheOnApply) {
  VisibilityCache cache;
  auto options = SlowKv("vc-populate", 30.0);
  options.visibility_cache = &cache;
  KvStore store(options);
  auto vis = store.visibility();
  ASSERT_NE(vis, nullptr);
  store.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(vis->IsVisible(Region::kUs, "k", 1));  // origin apply is synchronous
  store.DrainReplication();
  EXPECT_TRUE(vis->IsVisible(Region::kEu, "k", 1));
  EXPECT_TRUE(vis->IsVisible(Region::kSg, "k", 1));
  EXPECT_TRUE(vis->IsVisibleEverywhere("k", 1));
  EXPECT_EQ(vis->MinWatermark(), 1u);
}

TEST_F(VisibilityCacheTest, PausedReplicationDoesNotPopulate) {
  VisibilityCache cache;
  auto options = SlowKv("vc-pause", 10.0, {Region::kUs, Region::kEu});
  options.visibility_cache = &cache;
  KvStore store(options);
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  store.Set(Region::kUs, "k", "v");
  store.DrainReplication();  // shipment fired, but the entry is buffered
  auto vis = store.visibility();
  EXPECT_FALSE(vis->IsVisible(Region::kEu, "k", 1));
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
  EXPECT_TRUE(vis->IsVisible(Region::kEu, "k", 1));
  EXPECT_EQ(vis->watermark(Region::kEu), 1u);
}

// --- Barrier fast path -----------------------------------------------------

TEST_F(VisibilityCacheTest, BarrierCacheWarmPathIsZeroWait) {
  KvStore store(SlowKv("vc-warm", 30.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  store.DrainReplication();  // cache now warm at every region

  const uint64_t zero_wait_before = CounterValue("barrier.zero_wait");
  const uint64_t hits_before = CounterValue("barrier.cache_hit");
  const uint64_t waiters_before = store.TotalWakeups().waiters_notified;
  EXPECT_TRUE(
      BarrierGlobal(lineage, kThreeRegions, BarrierOptions{.registry = &registry}).ok());
  EXPECT_EQ(CounterValue("barrier.zero_wait"), zero_wait_before + 1);
  EXPECT_EQ(CounterValue("barrier.cache_hit"), hits_before + 3);  // 3 regions x 1 dep
  // Zero registry traffic: no waiter was registered or woken.
  EXPECT_EQ(store.TotalWakeups().waiters_notified, waiters_before);
  EXPECT_EQ(store.visibility()->KeyCount(), 1u);
}

TEST_F(VisibilityCacheTest, BarrierColdPathStillBlocksUntilVisible) {
  KvStore store(SlowKv("vc-cold", 80.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  const uint64_t misses_before = CounterValue("barrier.cache_miss");
  // Not yet replicated: the EU/SG probes miss and fall back to real waits.
  EXPECT_TRUE(
      BarrierGlobal(lineage, kThreeRegions, BarrierOptions{.registry = &registry}).ok());
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 1));
  EXPECT_TRUE(store.IsVisible(Region::kSg, "k", 1));
  EXPECT_GT(CounterValue("barrier.cache_miss"), misses_before);
  // The completed waits fed the cache: the same barrier again is free.
  const uint64_t zero_wait_before = CounterValue("barrier.zero_wait");
  EXPECT_TRUE(
      BarrierGlobal(lineage, kThreeRegions, BarrierOptions{.registry = &registry}).ok());
  EXPECT_EQ(CounterValue("barrier.zero_wait"), zero_wait_before + 1);
}

TEST_F(VisibilityCacheTest, BarrierCacheOffMatchesBaselineSemantics) {
  KvStore store(SlowKv("vc-off", 40.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  store.DrainReplication();
  const uint64_t zero_wait_before = CounterValue("barrier.zero_wait");
  EXPECT_TRUE(BarrierGlobal(lineage, kThreeRegions,
                            BarrierOptions{.registry = &registry, .use_cache = false})
                  .ok());
  EXPECT_EQ(CounterValue("barrier.zero_wait"), zero_wait_before);  // cache bypassed
}

TEST_F(VisibilityCacheTest, DryRunWarmVsCold) {
  KvStore store(SlowKv("vc-dry", 60.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));

  // Cold: the remote probes report the dependency unmet.
  BarrierDryRunResult cold = BarrierDryRun(lineage, Region::kEu, &registry);
  EXPECT_FALSE(cold.consistent);
  ASSERT_EQ(cold.unmet.size(), 1u);
  EXPECT_EQ(cold.unmet[0].key, "k");

  store.DrainReplication();
  // Warm via the cache (applies populated it): consistent at all 3 regions.
  for (Region region : kThreeRegions) {
    BarrierDryRunResult warm = BarrierDryRun(lineage, region, &registry);
    EXPECT_TRUE(warm.consistent) << RegionName(region);
  }
  // And with the cache off, the underlying IsVisible agrees — the cache never
  // changes a dry-run verdict, only its cost.
  for (Region region : kThreeRegions) {
    BarrierDryRunResult warm = BarrierDryRun(lineage, region, &registry, /*use_cache=*/false);
    EXPECT_TRUE(warm.consistent) << RegionName(region);
  }
}

TEST_F(VisibilityCacheTest, BatchedWaitCoversManyDeps) {
  KvStore store(SlowKv("vc-batch", 50.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage(1);
  for (int i = 0; i < 16; ++i) {
    lineage = shim.Write(Region::kUs, "k" + std::to_string(i), "v", std::move(lineage));
  }
  EXPECT_TRUE(Barrier(lineage, Region::kEu, BarrierOptions{.registry = &registry}).ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(store.IsVisible(Region::kEu, "k" + std::to_string(i), 1));
  }
}

TEST_F(VisibilityCacheTest, BatchedWaitDeadlineExceeded) {
  KvStore store(SlowKv("vc-batch-dl", 1000000.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "a", "v", Lineage(1));
  lineage = shim.Write(Region::kUs, "b", "v", std::move(lineage));
  Status status = Barrier(lineage, Region::kEu,
                          BarrierOptions{.wait = {.timeout = Millis(30)}, .registry = &registry});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  store.DrainReplication();
}

TEST_F(VisibilityCacheTest, WaitVisibleBatchAsyncEmptyAndVisible) {
  KvStore store(SlowKv("vc-batch-sync", 10.0, {Region::kUs, Region::kEu}));
  store.Set(Region::kUs, "k", "v");
  // Empty batch: completes Ok inline.
  std::atomic<int> fired{0};
  Status got = Status::Internal("unset");
  store.WaitVisibleBatchAsync(Region::kUs, {}, TimePoint::max(), [&](Status s) {
    got = std::move(s);
    fired.fetch_add(1);
  });
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(got.ok());
  // All-visible batch: completes Ok synchronously, no waiter registered.
  std::vector<KeyVersion> items = {{"k", 1}};
  store.WaitVisibleBatchAsync(Region::kUs, items, TimePoint::max(),
                              [&](Status s) {
                                got = std::move(s);
                                fired.fetch_add(1);
                              });
  EXPECT_EQ(fired.load(), 2);
  EXPECT_TRUE(got.ok());
  store.DrainReplication();
}

// --- Lineage pruning -------------------------------------------------------

TEST_F(VisibilityCacheTest, PruneDropsOnlyVisibleEverywhereDeps) {
  VisibilityCache cache;
  auto fast_options = SlowKv("vc-prune-fast", 5.0);
  fast_options.visibility_cache = &cache;
  KvStore fast(fast_options);
  auto slow_options = SlowKv("vc-prune-slow", 100000.0);
  slow_options.visibility_cache = &cache;
  KvStore slow(slow_options);

  Lineage lineage(1);
  fast.Set(Region::kUs, "done", "v");
  slow.Set(Region::kUs, "pending", "v");
  lineage.Append(WriteId{"vc-prune-fast", "done", 1});
  lineage.Append(WriteId{"vc-prune-slow", "pending", 1});
  lineage.Append(WriteId{"unknown-store", "k", 1});
  fast.DrainReplication();

  const size_t wire_before = lineage.WireSize();
  EXPECT_EQ(lineage.PruneVisibleEverywhere(cache), 1u);
  EXPECT_EQ(lineage.Size(), 2u);
  EXPECT_FALSE(lineage.Contains(WriteId{"vc-prune-fast", "done", 1}));
  // Still-replicating and unknown-store deps survive.
  EXPECT_TRUE(lineage.Contains(WriteId{"vc-prune-slow", "pending", 1}));
  EXPECT_TRUE(lineage.Contains(WriteId{"unknown-store", "k", 1}));
  EXPECT_LT(lineage.WireSize(), wire_before);
  // Idempotent: nothing more to prune.
  EXPECT_EQ(lineage.PruneVisibleEverywhere(cache), 0u);
}

// --- Stress: cache population races barrier lookups (run under TSan) -------

TEST_F(VisibilityCacheTest, CacheStressPopulationRacesLookups) {
  KvStore store(SlowKv("vc-stress", 3.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 40;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> barrier_failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kWritesPerWriter; ++i) {
        // Reused keys: versions bump, so lookups race entry updates, and the
        // seq tracker sees heavily out-of-order applies across regions.
        Lineage lineage(static_cast<uint64_t>(w * kWritesPerWriter + i + 1));
        lineage = shim.Write(Region::kUs, "k" + std::to_string(w % 2) + std::to_string(i % 8),
                             "v", std::move(lineage));
        Status status =
            BarrierGlobal(lineage, kThreeRegions,
                          BarrierOptions{.wait = {.timeout = Millis(60000)}, .registry = &registry});
        if (!status.ok()) {
          barrier_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Reader threads hammer cache lookups and dry-runs while applies populate.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto vis = store.visibility();
      Lineage probe(1);
      probe.Append(WriteId{"vc-stress", "k00", 1});
      while (!stop.load(std::memory_order_acquire)) {
        vis->IsVisible(Region::kEu, "k11", 1);
        vis->IsVisibleEverywhere("k00", 1);
        vis->MinWatermark();
        BarrierDryRun(probe, Region::kSg, &registry);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  store.DrainReplication();
  EXPECT_EQ(barrier_failures.load(), 0u);

  // After the dust settles every write is visible everywhere, so the final
  // watermark equals the total number of writes at every region.
  auto vis = store.visibility();
  const uint64_t total = kWriters * kWritesPerWriter;
  for (Region region : kThreeRegions) {
    EXPECT_EQ(vis->watermark(region), total) << RegionName(region);
  }
}

}  // namespace
}  // namespace antipode
