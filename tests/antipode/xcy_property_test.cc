// Property-style sweeps of the XCY invariants (§4.2):
//
//  I1  After Barrier(ℒ, r) returns OK, every dependency of ℒ with a
//      registered shim is visible at region r.
//  I2  Reads-from-lineage: a reader that observes a write also inherits the
//      writer's entire dependency set (so transitive enforcement works).
//  I3  Monotonic versions: a replica never regresses to an older version.
//  I4  Dry-run soundness: a dependency the dry run reports as met is indeed
//      readable locally.
//
// Each property is swept over replication delays and store fan-out with
// randomized workloads.

#include <gtest/gtest.h>

#include "src/antipode/antipode.h"
#include "src/common/random.h"
#include "src/common/sim.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

struct XcyParam {
  double replication_median_millis;
  int num_stores;
  int writes_per_request;
};

// Readable, build-stable ctest ids (e.g. `.../lag80ms_stores2_writes4`).
void PrintTo(const XcyParam& p, std::ostream* os) {
  *os << "lag" << p.replication_median_millis << "ms_stores" << p.num_stores << "_writes"
      << p.writes_per_request;
}

class XcyPropertyTest : public ::testing::TestWithParam<XcyParam> {
 protected:
  void SetUp() override { TimeScale::Set(0.005); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_P(XcyPropertyTest, BarrierImpliesVisibility) {
  const XcyParam param = GetParam();
  static int generation = 0;
  const std::string tag = "xcy" + std::to_string(generation++);

  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<KvShim>> shims;
  ShimRegistry registry;
  for (int i = 0; i < param.num_stores; ++i) {
    auto options = KvStore::DefaultOptions(tag + "-s" + std::to_string(i), kRegions);
    options.replication.median_millis = param.replication_median_millis;
    options.replication.sigma = 0.4;
    stores.push_back(std::make_unique<KvStore>(std::move(options)));
    shims.push_back(std::make_unique<KvShim>(stores.back().get()));
    registry.Register(shims.back().get());
  }

  Rng rng(1234);
  for (int request = 0; request < 10; ++request) {
    ScopedContext scoped(RequestContext(static_cast<uint64_t>(request)));
    LineageApi::Root();
    for (int w = 0; w < param.writes_per_request; ++w) {
      const auto store_index = static_cast<size_t>(rng.NextBelow(
          static_cast<uint64_t>(param.num_stores)));
      shims[store_index]->WriteCtx(Region::kUs,
                                   "r" + std::to_string(request) + "w" + std::to_string(w),
                                   "value");
    }
    auto lineage = LineageApi::Current();
    ASSERT_TRUE(lineage.has_value());
    ASSERT_EQ(lineage->Size(), static_cast<size_t>(param.writes_per_request));

    // I1: barrier => every dependency visible at the barrier region.
    ASSERT_TRUE(Barrier(*lineage, Region::kEu, BarrierOptions{.registry = &registry}).ok());
    for (const auto& dep : lineage->deps()) {
      Shim* shim = registry.Lookup(dep.store);
      ASSERT_NE(shim, nullptr);
      EXPECT_TRUE(shim->IsVisible(Region::kEu, dep)) << dep.ToString();
    }

    // I4: dry run must now agree.
    auto report = BarrierDryRun(*lineage, Region::kEu, &registry);
    EXPECT_TRUE(report.consistent);
  }
}

TEST_P(XcyPropertyTest, ReadsFromLineageInheritsDependencies) {
  const XcyParam param = GetParam();
  static int generation = 0;
  const std::string tag = "rfl" + std::to_string(generation++);

  auto options = KvStore::DefaultOptions(tag, kRegions);
  options.replication.median_millis = param.replication_median_millis;
  KvStore store(std::move(options));
  KvShim shim(&store);

  // Writer: a chain of writes, each carrying the lineage so far.
  Lineage writer(1);
  for (int w = 0; w < param.writes_per_request; ++w) {
    writer = shim.Write(Region::kUs, tag + "-k" + std::to_string(w), "v", std::move(writer));
  }
  const std::string last_key = tag + "-k" + std::to_string(param.writes_per_request - 1);

  // Reader at the origin (visible immediately): observing the last write
  // must surface every earlier write of the chain (I2).
  auto result = shim.Read(Region::kUs, last_key);
  ASSERT_TRUE(result.ok());
  for (int w = 0; w < param.writes_per_request; ++w) {
    EXPECT_TRUE(result->lineage.Contains(
        WriteId{tag, tag + "-k" + std::to_string(w), 1}))
        << w;
  }
}

TEST_P(XcyPropertyTest, ReplicaVersionsNeverRegress) {
  const XcyParam param = GetParam();
  static int generation = 0;
  const std::string tag = "mono" + std::to_string(generation++);

  auto options = KvStore::DefaultOptions(tag, kRegions);
  options.replication.median_millis = param.replication_median_millis;
  options.replication.sigma = 1.0;  // heavy reordering across versions
  KvStore store(std::move(options));

  constexpr int kVersions = 12;
  for (int i = 0; i < kVersions; ++i) {
    store.Set(Region::kUs, "hot", "v" + std::to_string(i));
  }
  // Observe the EU replica while replication delivers out-of-order applies:
  // its visible version must be non-decreasing (I3).
  uint64_t last_seen = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (last_seen < kVersions && std::chrono::steady_clock::now() < deadline) {
    auto entry = store.Get(Region::kEu, "hot");
    if (static_cast<bool>(entry)) {
      EXPECT_GE(entry->version, last_seen);
      last_seen = std::max(last_seen, entry->version);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(last_seen, static_cast<uint64_t>(kVersions));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, XcyPropertyTest,
    ::testing::Values(XcyParam{10.0, 1, 1}, XcyParam{10.0, 3, 6}, XcyParam{80.0, 2, 4},
                      XcyParam{80.0, 4, 10}, XcyParam{300.0, 3, 8}, XcyParam{0.1, 2, 5}));

// The ACL scenario of §5.1: without transfer, Bob can see the post although
// Alice blocked him first; with transfer, the block is enforced. Runs in
// simulation on a private deterministic timer engine, so the race between
// the slow ACL and the fast post is decided in virtual time, not by how
// loaded the host is.
TEST(XcyTransferScenarioTest, AclTransferEstablishesCrossLineageOrder) {
  ScopedSimMode sim(7);
  TimerServiceOptions timer_options;
  timer_options.deterministic = true;
  TimerService timers(timer_options);
  auto acl_options = KvStore::DefaultOptions("acl-storage", kRegions);
  acl_options.replication.median_millis = 400.0;  // ACL replicates slowly
  auto post_options = KvStore::DefaultOptions("post-storage-acl", kRegions);
  post_options.replication.median_millis = 20.0;  // posts replicate fast
  KvStore acl(std::move(acl_options), &RegionTopology::Default(), &timers);
  KvStore posts(std::move(post_options), &RegionTopology::Default(), &timers);
  KvShim acl_shim(&acl);
  KvShim post_shim(&posts);
  ShimRegistry registry;
  registry.Register(&acl_shim);
  registry.Register(&post_shim);

  // Lineage 1: Alice blocks Bob.
  Lineage block_lineage(1);
  block_lineage = acl_shim.Write(Region::kUs, "acl:alice", "block:bob",
                                 std::move(block_lineage));

  // Lineage 2: Alice posts. Without transfer, the post's lineage does not
  // carry the ACL write.
  Lineage post_lineage_no_transfer(2);
  post_lineage_no_transfer =
      post_shim.Write(Region::kUs, "post:alice:1", "hello", std::move(post_lineage_no_transfer));
  ASSERT_TRUE(
      Barrier(post_lineage_no_transfer, Region::kEu, BarrierOptions{.registry = &registry})
          .ok());
  // Post is visible in EU but the ACL may not be: Bob would see the post.
  EXPECT_TRUE(posts.IsVisible(Region::kEu, "post:alice:1", 1));
  EXPECT_FALSE(acl.IsVisible(Region::kEu, "acl:alice", 1));

  // With transfer (§5.1): the developer copies ℒ_block into ℒ_post, and the
  // barrier now also waits for the ACL write.
  Lineage post_lineage_transfer(3);
  post_lineage_transfer.Transfer(block_lineage);
  post_lineage_transfer =
      post_shim.Write(Region::kUs, "post:alice:2", "hello again",
                      std::move(post_lineage_transfer));
  ASSERT_TRUE(Barrier(post_lineage_transfer, Region::kEu,
                      BarrierOptions{.registry = &registry})
                  .ok());
  EXPECT_TRUE(acl.IsVisible(Region::kEu, "acl:alice", 1));
  EXPECT_TRUE(posts.IsVisible(Region::kEu, "post:alice:2", 1));
}

}  // namespace
}  // namespace antipode
