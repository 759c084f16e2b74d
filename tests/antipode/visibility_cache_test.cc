// Store visibility (DESIGN.md §8): the record-backed probe and the per-region
// watermark/frontier tracker, the barrier fast path (warm vs cold,
// BarrierGlobal and BarrierDryRun across 3 regions), batched waits, lineage
// pruning through a shim registry, and a TSan-labelled stress test racing
// applies against barrier lookups.

#include "src/store/store_visibility.h"

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
#include "src/fault/fault_injector.h"
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

// A store with replication stalled at `paused` (through its own injector),
// so tests control exactly which regions have applied a write.
struct PausedKv {
  PausedKv(const std::string& name, Region paused,
           const std::vector<Region>& regions = kThreeRegions)
      : store([&] {
          auto options = SlowKv(name, 10.0, regions);
          options.fault_injector = &injector;
          return options;
        }()),
        paused_region(paused) {
    injector.PauseStore(name, paused);
  }
  ~PausedKv() { Resume(); }
  void Resume() { injector.ResumeStore(store.name(), paused_region); }

  FaultInjector injector;
  KvStore store;
  Region paused_region;
};

TEST_F(VisibilityCacheTest, PerKeyHitAndMiss) {
  PausedKv kv("vc-perkey", Region::kEu, {Region::kUs, Region::kEu});
  const StoreVisibility& vis = kv.store.visibility();
  EXPECT_FALSE(vis.IsVisible(Region::kUs, "k", 1));
  kv.store.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 1));
  EXPECT_FALSE(vis.IsVisible(Region::kEu, "k", 1));  // not applied there yet
  EXPECT_FALSE(vis.IsVisible(Region::kUs, "k", 2));  // newer version unknown
  // A hit on version N covers every older version of the key.
  for (int i = 0; i < 4; ++i) kv.store.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 3));
}

TEST_F(VisibilityCacheTest, UntrackedRegionNeverHits) {
  KvStore store(SlowKv("vc-untracked", 10.0, {Region::kUs, Region::kEu}));
  store.Set(Region::kUs, "k", "v");
  store.DrainReplication();
  EXPECT_FALSE(store.visibility().IsVisible(Region::kSg, "k", 1));
  // The store's own probe is vacuously true there (nothing to be stale on);
  // the barrier probe is strict and leaves that region to the scope filter.
  EXPECT_TRUE(store.IsVisible(Region::kSg, "k", 1));
}

TEST_F(VisibilityCacheTest, StampCoveringNamesTheLatestWrite) {
  PausedKv kv("vc-stamp", Region::kEu, {Region::kUs, Region::kEu});
  const StoreVisibility& vis = kv.store.visibility();
  EXPECT_EQ(vis.StampCovering("k", 1), 0u);  // no write yet
  kv.store.Set(Region::kUs, "k", "v");
  kv.store.Set(Region::kUs, "k", "v");
  const uint64_t latest_hlc = kv.store.Get(Region::kUs, "k")->hlc;
  ASSERT_NE(latest_hlc, 0u);
  // Known from the origin apply on, wherever the write still travels.
  EXPECT_EQ(vis.StampCovering("k", 1), latest_hlc);
  EXPECT_EQ(vis.StampCovering("k", 2), latest_hlc);
  EXPECT_EQ(vis.StampCovering("k", 3), 0u);  // nothing supersedes v3 yet
}

TEST_F(VisibilityCacheTest, WatermarkAdvancesOnContiguousPrefix) {
  KvStore idle(SlowKv("vc-watermark", 10.0, {Region::kUs}));
  StoreVisibility vis(idle);
  vis.NoteApply(Region::kUs, 1);
  EXPECT_EQ(vis.watermark(Region::kUs), 1u);
  // Out-of-order arrival: seq 3 parks until seq 2 fills the gap.
  vis.NoteApply(Region::kUs, 3);
  EXPECT_EQ(vis.watermark(Region::kUs), 1u);
  vis.NoteApply(Region::kUs, 2);
  EXPECT_EQ(vis.watermark(Region::kUs), 3u);
  // Duplicate notifications do not double-advance.
  vis.NoteApply(Region::kUs, 2);
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
  KvStore idle(SlowKv("tracker-model", 10.0, {Region::kUs}));
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

    StoreVisibility vis(idle);
    vis.NoteIssued(kSeqs);
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
      vis.NoteApply(Region::kUs, seq, hlc[seq]);
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
  // The record keeps the highest version applied per region, so a newer
  // apply covers every older write of the key at that region.
  PausedKv kv("vc-oldwrites", Region::kEu, {Region::kUs, Region::kEu});
  kv.store.Set(Region::kUs, "k", "v1");
  kv.store.Set(Region::kUs, "k", "v2");
  kv.store.DrainReplication();
  const StoreVisibility& vis = kv.store.visibility();
  EXPECT_FALSE(vis.IsVisible(Region::kEu, "k", 1));
  kv.Resume();
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "k", 1));
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "k", 2));
  EXPECT_EQ(vis.watermark(Region::kEu), 2u);

  // The watermark itself waits for the oldest gap: a stale replay of seq 1
  // landing last is what lifts it past the newer applies.
  KvStore idle(SlowKv("vc-oldwrites-idle", 10.0, {Region::kUs, Region::kEu}));
  StoreVisibility tracker(idle);
  tracker.NoteApply(Region::kEu, 2);
  tracker.NoteApply(Region::kEu, 3);
  EXPECT_EQ(tracker.watermark(Region::kEu), 0u);  // seq 1 never applied at EU...
  tracker.NoteApply(Region::kEu, 1);              // ...until the stale replay lands
  EXPECT_EQ(tracker.watermark(Region::kEu), 3u);
}

TEST_F(VisibilityCacheTest, VisibleEverywhereRequiresAllRegions) {
  PausedKv kv("vc-everywhere", Region::kSg);
  KvShim shim(&kv.store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  kv.store.DrainReplication();  // applied at US and EU; SG buffers it
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry), 0u);
  ASSERT_EQ(lineage.Size(), 1u);
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kSg}));
  kv.Resume();
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry), 1u);
  EXPECT_TRUE(lineage.Empty());
  for (Region region : kThreeRegions) {
    EXPECT_EQ(kv.store.visibility().watermark(region), 1u) << RegionName(region);
  }
}

// Two live stores may share a name (lineage dependencies name stores, but
// each deployment resolves names through its own registry). Pruning must ask
// the store the registry names, never another same-named one.
TEST_F(VisibilityCacheTest, SameNamedStoresPruneThroughTheirOwnRegistry) {
  PausedKv a("vc-twin", Region::kEu, {Region::kUs, Region::kEu});
  KvShim shim_a(&a.store);
  ShimRegistry registry_a;
  registry_a.Register(&shim_a);
  Lineage lineage = shim_a.Write(Region::kUs, "k", "v", Lineage(1));
  a.store.DrainReplication();  // EU buffers it

  // B: same name, same ⟨key, version⟩, applied everywhere — created last.
  KvStore b(SlowKv("vc-twin", 1.0, {Region::kUs, Region::kEu}));
  KvShim shim_b(&b);
  ShimRegistry registry_b;
  registry_b.Register(&shim_b);
  b.Set(Region::kUs, "k", "v");
  b.DrainReplication();
  ASSERT_TRUE(b.visibility().IsVisible(Region::kEu, "k", 1));

  Lineage through_b = lineage;
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry_a), 0u);
  ASSERT_EQ(lineage.Size(), 1u);
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kEu}));
  EXPECT_FALSE(BarrierDryRun(lineage, Region::kEu, &registry_a).consistent);
  // The same dependency really is visible everywhere in B's deployment.
  EXPECT_EQ(PruneVisibleEverywhere(through_b, registry_b), 1u);
}

TEST_F(VisibilityCacheTest, ReRegisterStartsCold) {
  auto first = std::make_unique<KvStore>(SlowKv("vc-recreate", 1.0, {Region::kUs}));
  first->Set(Region::kUs, "k", "v");
  EXPECT_TRUE(first->visibility().IsVisible(Region::kUs, "k", 1));
  // A re-created same-named store must not inherit the old facts.
  KvStore second(SlowKv("vc-recreate", 1.0, {Region::kUs}));
  EXPECT_FALSE(second.visibility().IsVisible(Region::kUs, "k", 1));
  EXPECT_EQ(second.visibility().StampCovering("k", 1), 0u);
  EXPECT_EQ(second.visibility().watermark(Region::kUs), 0u);
  // Destroying the older store leaves the live one's state untouched.
  first.reset();
  second.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(second.visibility().IsVisible(Region::kUs, "k", 1));
  EXPECT_EQ(second.visibility().watermark(Region::kUs), 1u);
}

TEST_F(VisibilityCacheTest, StorePopulatesCacheOnApply) {
  KvStore store(SlowKv("vc-populate", 30.0));
  const StoreVisibility& vis = store.visibility();
  store.Set(Region::kUs, "k", "v");
  EXPECT_TRUE(vis.IsVisible(Region::kUs, "k", 1));  // origin apply is synchronous
  store.DrainReplication();
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "k", 1));
  EXPECT_TRUE(vis.IsVisible(Region::kSg, "k", 1));
  for (Region region : kThreeRegions) {
    EXPECT_EQ(vis.watermark(region), 1u) << RegionName(region);
  }
}

TEST_F(VisibilityCacheTest, PausedReplicationDoesNotPopulate) {
  auto options = SlowKv("vc-pause", 10.0, {Region::kUs, Region::kEu});
  KvStore store(options);
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  store.Set(Region::kUs, "k", "v");
  store.DrainReplication();  // shipment fired, but the entry is buffered
  const StoreVisibility& vis = store.visibility();
  EXPECT_FALSE(vis.IsVisible(Region::kEu, "k", 1));
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
  EXPECT_TRUE(vis.IsVisible(Region::kEu, "k", 1));
  EXPECT_EQ(vis.watermark(Region::kEu), 1u);
}

// --- Barrier fast path -----------------------------------------------------

TEST_F(VisibilityCacheTest, BarrierCacheWarmPathIsZeroWait) {
  KvStore store(SlowKv("vc-warm", 30.0));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  store.DrainReplication();  // applied at every region

  const uint64_t zero_wait_before = CounterValue("barrier.zero_wait");
  const uint64_t hits_before = CounterValue("barrier.cache_hit");
  const uint64_t waiters_before = store.TotalWakeups().waiters_notified;
  EXPECT_TRUE(
      BarrierGlobal(lineage, kThreeRegions, BarrierOptions{.registry = &registry}).ok());
  EXPECT_EQ(CounterValue("barrier.zero_wait"), zero_wait_before + 1);
  EXPECT_EQ(CounterValue("barrier.cache_hit"), hits_before + 3);  // 3 regions x 1 dep
  // Zero registry traffic: no waiter was registered or woken.
  EXPECT_EQ(store.TotalWakeups().waiters_notified, waiters_before);
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
  // The waits completed because the records show the write, so the same
  // barrier again is free.
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
  // Warm via the record probe: consistent at all 3 regions.
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
  KvStore fast(SlowKv("vc-prune-fast", 5.0));
  KvStore slow(SlowKv("vc-prune-slow", 100000.0));
  KvShim fast_shim(&fast);
  KvShim slow_shim(&slow);
  ShimRegistry registry;
  registry.Register(&fast_shim);
  registry.Register(&slow_shim);

  Lineage lineage(1);
  fast.Set(Region::kUs, "done", "v");
  slow.Set(Region::kUs, "pending", "v");
  lineage.Append(WriteId{"vc-prune-fast", "done", 1});
  lineage.Append(WriteId{"vc-prune-slow", "pending", 1});
  lineage.Append(WriteId{"unknown-store", "k", 1});
  fast.DrainReplication();

  const size_t wire_before = lineage.WireSize();
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry), 1u);
  EXPECT_EQ(lineage.Size(), 2u);
  EXPECT_FALSE(lineage.Contains(WriteId{"vc-prune-fast", "done", 1}));
  // Still-replicating and unknown-store deps survive.
  EXPECT_TRUE(lineage.Contains(WriteId{"vc-prune-slow", "pending", 1}));
  EXPECT_TRUE(lineage.Contains(WriteId{"unknown-store", "k", 1}));
  EXPECT_LT(lineage.WireSize(), wire_before);
  // Idempotent: nothing more to prune.
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry), 0u);
}

// --- Stress: applies race barrier lookups (run under TSan) ------------------

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
  // Reader threads hammer record probes, stamps, pruning and dry-runs while
  // applies land.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const StoreVisibility& vis = store.visibility();
      Lineage probe(1);
      probe.Append(WriteId{"vc-stress", "k00", 1});
      while (!stop.load(std::memory_order_acquire)) {
        vis.IsVisible(Region::kEu, "k11", 1);
        vis.StampCovering("k00", 1);
        vis.watermark(Region::kSg);
        Lineage pruned = probe;
        PruneVisibleEverywhere(pruned, registry);
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
  const StoreVisibility& vis = store.visibility();
  const uint64_t total = kWriters * kWritesPerWriter;
  for (Region region : kThreeRegions) {
    EXPECT_EQ(vis.watermark(region), total) << RegionName(region);
  }
}

}  // namespace
}  // namespace antipode
