// Backend-parameterized enforcement invariants (DESIGN.md §12): every test in
// the value-parameterized fixture runs once per strategy — the native lineage
// backend and the Okapi-style stable-frontier backend — asserting the same
// observable contract: a barrier that returns Ok leaves every dependency
// visible at the barrier region (zero XCY violations, confirmed by the
// backend-independent dry-run checker), deadlines surface as DeadlineExceeded
// rather than hangs, and fault schedules only ever delay enforcement, never
// break it.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/antipode/barrier.h"
#include "src/antipode/dynamo_shim.h"
#include "src/antipode/kv_shim.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"

namespace antipode {

// Found by argument-dependent lookup, so it lives in the enum's namespace.
void PrintTo(EnforcementBackendKind kind, std::ostream* os) {
  *os << EnforcementBackendKindName(kind);
}

namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class EnforcementBackendTest : public ::testing::TestWithParam<EnforcementBackendKind> {
 protected:
  void SetUp() override { TimeScale::Set(0.02); }
  void TearDown() override { TimeScale::Set(1.0); }

  // Store names key the process-wide fault injector and metrics, so each
  // test × backend instantiation tags its own deployment.
  std::string Tag(const std::string& base) const {
    return base + "-" + std::string(EnforcementBackendKindName(GetParam()));
  }

  BarrierOptions Options(ShimRegistry* registry) const {
    BarrierOptions options;
    options.registry = registry;
    options.backend = GetParam();
    return options;
  }
};

// I1 under both strategies: Ok ⟹ every dependency visible at the barrier
// region, and the (backend-independent) dry-run checker agrees.
TEST_P(EnforcementBackendTest, BarrierImpliesVisibility) {
  constexpr int kStores = 3;
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<KvShim>> shims;
  ShimRegistry registry;
  for (int i = 0; i < kStores; ++i) {
    auto options = KvStore::DefaultOptions(Tag("eb-vis") + std::to_string(i), kRegions);
    options.replication.median_millis = 5.0;
    options.replication.sigma = 0.3;
    stores.push_back(std::make_unique<KvStore>(std::move(options)));
    shims.push_back(std::make_unique<KvShim>(stores.back().get()));
    registry.Register(shims.back().get());
  }

  Rng rng(7);
  for (int request = 0; request < 8; ++request) {
    Lineage lineage(static_cast<uint64_t>(request) + 1);
    std::vector<WriteId> written;
    for (int w = 0; w < 3; ++w) {
      const auto s = static_cast<size_t>(rng.NextBelow(kStores));
      const std::string key = "r" + std::to_string(request) + "w" + std::to_string(w);
      lineage = shims[s]->Write(Region::kUs, key, "value", std::move(lineage));
      written.push_back(lineage.deps().back());
    }
    ASSERT_TRUE(Barrier(lineage, Region::kEu, Options(&registry)).ok());
    for (const WriteId& id : written) {
      EXPECT_TRUE(registry.Lookup(id.store)->IsVisible(Region::kEu, id))
          << id.ToString() << " invisible after Ok barrier";
    }
    const BarrierDryRunResult probe = BarrierDryRun(lineage, Region::kEu, &registry);
    EXPECT_TRUE(probe.consistent);
    EXPECT_TRUE(probe.unmet.empty());
  }
  for (auto& store : stores) {
    store->DrainReplication();
  }
}

// A dependency that cannot replicate in time must surface as DeadlineExceeded
// from either strategy — never a hang, never a false Ok.
TEST_P(EnforcementBackendTest, TimeoutExpires) {
  auto options = KvStore::DefaultOptions(Tag("eb-slow"), kRegions);
  // Slow enough that the 30ms timeout always fires first, but short enough
  // that tearing down the pending apply doesn't dominate the suite.
  options.replication.median_millis = 50000.0;
  options.replication.sigma = 0.05;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  BarrierOptions barrier_options = Options(&registry);
  barrier_options.wait.timeout = Millis(30);
  const Status status = Barrier(lineage, Region::kEu, barrier_options);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

// Repeat barriers over an already-enforced lineage take the memoized zero-wait
// fast path under both strategies.
TEST_P(EnforcementBackendTest, RepeatBarrierIsZeroWait) {
  auto options = KvStore::DefaultOptions(Tag("eb-repeat"), kRegions);
  options.replication.median_millis = 5.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  ASSERT_TRUE(Barrier(lineage, Region::kEu, Options(&registry)).ok());
  Counter* zero_wait = MetricsRegistry::Default().GetCounter("barrier.zero_wait");
  const uint64_t before = zero_wait->value();
  ASSERT_TRUE(Barrier(lineage, Region::kEu, Options(&registry)).ok());
  EXPECT_GT(zero_wait->value(), before);
  store.DrainReplication();
}

// A windowed replication stall (the PR-5 fault vocabulary) delays enforcement
// but never breaks it: barriers issued during the stall block, complete Ok
// once the window heals and the backlog replays, and the post-Ok state shows
// zero XCY violations with per-key version order intact.
TEST_P(EnforcementBackendTest, StallScheduleDelaysButNeverBreaks) {
  FaultInjector injector;
  FaultRule stall;
  stall.kind = FaultKind::kStoreStall;
  stall.store = Tag("eb-stall");
  stall.from = Region::kUs;
  stall.to = Region::kEu;
  stall.start_model_ms = 0.0;
  stall.end_model_ms = 120.0;
  injector.Arm(FaultPlan{"backend-stall", 11, {stall}});

  auto options = KvStore::DefaultOptions(Tag("eb-stall"), kRegions);
  options.replication.median_millis = 5.0;
  options.replication.sigma = 0.1;
  options.fault_injector = &injector;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  Lineage lineage(1);
  for (int v = 1; v <= 4; ++v) {
    lineage = shim.Write(Region::kUs, "k", "v" + std::to_string(v), std::move(lineage));
  }
  BarrierOptions barrier_options = Options(&registry);
  barrier_options.wait.timeout = Millis(5000);
  ASSERT_TRUE(Barrier(lineage, Region::kEu, barrier_options).ok());
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 4));
  const auto read = shim.Read(Region::kEu, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "v4");
  const BarrierDryRunResult probe = BarrierDryRun(lineage, Region::kEu, &registry);
  EXPECT_TRUE(probe.consistent);
  injector.Disarm();
  store.DrainReplication();
}

// A deployment mixing frontier-capable stores with a store whose shim serves
// no frontier (DynamoShim waits through strong reads) must still enforce: the
// stable-frontier encoding falls back to per-dependency waits for the latter.
TEST_P(EnforcementBackendTest, MixedFrontierAndFallbackStores) {
  auto kv_options = KvStore::DefaultOptions(Tag("eb-mixA"), kRegions);
  kv_options.replication.median_millis = 5.0;
  KvStore store_a(std::move(kv_options));
  auto dynamo_options = DynamoStore::DefaultOptions(Tag("eb-mixB"), kRegions);
  dynamo_options.replication.median_millis = 5.0;
  DynamoStore store_b(std::move(dynamo_options));
  KvShim shim_a(&store_a);
  DynamoShim shim_b(&store_b);
  EXPECT_TRUE(shim_a.SupportsFrontier());
  EXPECT_FALSE(shim_b.SupportsFrontier());
  ShimRegistry registry;
  registry.Register(&shim_a);
  registry.Register(&shim_b);

  Lineage lineage = shim_a.Write(Region::kUs, "ka", "va", Lineage(1));
  auto with_b = shim_b.PutItem(Region::kUs, "t", "kb", Document{{"b", Value("vb")}},
                               std::move(lineage));
  ASSERT_TRUE(with_b.ok());
  ASSERT_TRUE(Barrier(*with_b, Region::kEu, Options(&registry)).ok());
  EXPECT_TRUE(store_a.IsVisible(Region::kEu, "ka", 1));
  // A strong-read wait proves the authority has the write, so a consistent
  // read at EU sees it; the EU replica itself catches up by the drain.
  EXPECT_TRUE(shim_b.GetItemConsistent(Region::kEu, "t", "kb").ok());
  store_a.DrainReplication();
  store_b.DrainReplication();
  EXPECT_TRUE(store_b.IsVisible(Region::kEu, DynamoStore::ItemKey("t", "kb"), 1));
}

// Global enforcement across every region, under both strategies.
TEST_P(EnforcementBackendTest, GlobalBarrierCoversAllRegions) {
  const std::vector<Region> three = {Region::kUs, Region::kEu, Region::kSg};
  auto options = KvStore::DefaultOptions(Tag("eb-global"), three);
  options.replication.median_millis = 5.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  Lineage lineage = shim.Write(Region::kUs, "g", "v", Lineage(1));
  ASSERT_TRUE(BarrierGlobal(lineage, three, Options(&registry)).ok());
  for (Region region : three) {
    EXPECT_TRUE(store.IsVisible(region, "g", 1));
  }
  store.DrainReplication();
}

// Locality isolation (DESIGN.md §13), under both strategies: a deployment-wide
// barrier that also names a region the dependencies' stores never replicate to
// completes even while that region is fully down — the scope bit for the
// outaged region is clear, so the ⟨store, region⟩ pair is skipped outright
// (counted in barrier.scoped_skip) and no wait can stall on it.
TEST_P(EnforcementBackendTest, OutOfScopePartitionDoesNotBlock) {
  FaultInjector injector;
  FaultRule outage;
  outage.kind = FaultKind::kRegionOutage;
  outage.to = Region::kSg;
  outage.start_model_ms = 0.0;
  outage.end_model_ms = 1e9;  // never heals within this test
  injector.Arm(FaultPlan{"sg-outage", 13, {outage}});

  // Replicates to {US, EU} only, so every write's scope excludes SG.
  auto options = KvStore::DefaultOptions(Tag("eb-scope"), kRegions);
  options.replication.median_millis = 5.0;
  options.fault_injector = &injector;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  ASSERT_EQ(lineage.deps().back().scope & RegionBit(Region::kSg), 0);

  Counter* scoped_skip = MetricsRegistry::Default().GetCounter("barrier.scoped_skip");
  const uint64_t skips_before = scoped_skip->value();
  BarrierOptions barrier_options = Options(&registry);
  barrier_options.wait.timeout = Millis(5000);
  const std::vector<Region> deployment = {Region::kUs, Region::kEu, Region::kSg};
  ASSERT_TRUE(BarrierGlobal(lineage, deployment, barrier_options).ok());
  EXPECT_GT(scoped_skip->value(), skips_before);
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 1));

  injector.Disarm();
  store.DrainReplication();
}

// Ids read `.../lineage` and `.../stable_frontier`: ctest's discovery turns
// each `/<index>  # GetParam() = <PrintTo>` gtest id into `/<PrintTo>`.
INSTANTIATE_TEST_SUITE_P(Backends, EnforcementBackendTest,
                         ::testing::Values(EnforcementBackendKind::kLineage,
                                           EnforcementBackendKind::kStableFrontier));

// --- strategy selection & metadata (not backend-parameterized) --------------

class EnforcementSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.02); }
  void TearDown() override { TimeScale::Set(1.0); }
};

// kInherit resolves the registry's default_backend, and the dispatch counter
// attributes the call to the resolved strategy.
TEST_F(EnforcementSelectionTest, RegistryDefaultBackendDrivesInherit) {
  auto options = KvStore::DefaultOptions("eb-sel", kRegions);
  options.replication.median_millis = 5.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry(ShimRegistryOptions{
      .name = "test", .default_backend = EnforcementBackendKind::kStableFrontier});
  registry.Register(&shim);

  Counter* frontier_calls = MetricsRegistry::Default().GetCounter(
      "barrier.backend", {{"backend", "stable_frontier"}});
  Counter* lineage_calls =
      MetricsRegistry::Default().GetCounter("barrier.backend", {{"backend", "lineage"}});
  const uint64_t frontier_before = frontier_calls->value();
  const uint64_t lineage_before = lineage_calls->value();

  Lineage lineage = shim.Write(Region::kUs, "k", "v", Lineage(1));
  ASSERT_TRUE(Barrier(lineage, Region::kEu, BarrierOptions{.registry = &registry}).ok());
  EXPECT_EQ(frontier_calls->value(), frontier_before + 1);

  // An explicit per-call backend overrides the registry default.
  ASSERT_TRUE(Barrier(lineage, Region::kEu,
                      BarrierOptions{.registry = &registry,
                                     .backend = EnforcementBackendKind::kLineage})
                  .ok());
  EXPECT_EQ(lineage_calls->value(), lineage_before + 1);
  store.DrainReplication();
}

// The strategies' metadata trade: a lineage's wire size grows with its
// dependency count, the frontier cut stays one varint.
TEST_F(EnforcementSelectionTest, MetadataBytesTradeoff) {
  Lineage lineage(1);
  for (int i = 0; i < 32; ++i) {
    lineage.Append(WriteId{"meta-store", "key-" + std::to_string(i), 1});
  }
  const size_t lineage_bytes = EnforcementMetadataBytes(EnforcementBackendKind::kLineage, lineage);
  const size_t cut_bytes =
      EnforcementMetadataBytes(EnforcementBackendKind::kStableFrontier, lineage);
  EXPECT_GT(lineage_bytes, 32u * 8u);
  EXPECT_LE(cut_bytes, 10u);  // one 64-bit varint
  EXPECT_LT(cut_bytes, lineage_bytes);
}

}  // namespace
}  // namespace antipode
