#include "src/antipode/lineage.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/antipode/kv_shim.h"
#include "src/common/random.h"
#include "src/fault/fault_injector.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

WriteId Id(const std::string& store, const std::string& key, uint64_t version) {
  return WriteId{store, key, version};
}

TEST(WriteIdTest, OrderingAndEquality) {
  EXPECT_EQ(Id("s", "k", 1), Id("s", "k", 1));
  EXPECT_LT(Id("a", "k", 1), Id("b", "k", 1));
  EXPECT_LT(Id("s", "a", 1), Id("s", "b", 1));
  EXPECT_LT(Id("s", "k", 1), Id("s", "k", 2));
}

TEST(WriteIdTest, ToStringIsReadable) {
  EXPECT_EQ(Id("mysql", "posts/1", 3).ToString(), "mysql:posts/1@v3");
}

TEST(WriteIdTest, SerializeRoundTrip) {
  Serializer s;
  Id("store", "key/with/slashes", 123456789).SerializeTo(s);
  Deserializer d(s.data());
  auto restored = WriteId::DeserializeFrom(d);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, Id("store", "key/with/slashes", 123456789));
}

TEST(LineageTest, StartsEmpty) {
  Lineage lineage(7);
  EXPECT_TRUE(lineage.Empty());
  EXPECT_EQ(lineage.Size(), 0u);
  EXPECT_EQ(lineage.id(), 7u);
}

TEST(LineageTest, AppendAndContains) {
  Lineage lineage;
  lineage.Append(Id("s", "k", 1));
  EXPECT_TRUE(lineage.Contains(Id("s", "k", 1)));
  EXPECT_FALSE(lineage.Contains(Id("s", "k", 2)));
  EXPECT_EQ(lineage.Size(), 1u);
}

TEST(LineageTest, AppendIsIdempotent) {
  Lineage lineage;
  lineage.Append(Id("s", "k", 1));
  lineage.Append(Id("s", "k", 1));
  EXPECT_EQ(lineage.Size(), 1u);
}

TEST(LineageTest, AppendCompactsSameKeyToHighestVersion) {
  Lineage lineage;
  lineage.Append(Id("s", "k", 3));
  lineage.Append(Id("s", "k", 1));  // older: subsumed
  EXPECT_EQ(lineage.Size(), 1u);
  EXPECT_TRUE(lineage.Contains(Id("s", "k", 3)));
  lineage.Append(Id("s", "k", 9));  // newer: replaces
  EXPECT_EQ(lineage.Size(), 1u);
  EXPECT_TRUE(lineage.Contains(Id("s", "k", 9)));
  EXPECT_FALSE(lineage.Contains(Id("s", "k", 3)));
}

TEST(LineageTest, CompactionKeepsDistinctKeysAndStores) {
  Lineage lineage;
  lineage.Append(Id("s1", "k", 1));
  lineage.Append(Id("s2", "k", 1));
  lineage.Append(Id("s1", "other", 1));
  EXPECT_EQ(lineage.Size(), 3u);
}

TEST(LineageTest, RemoveDeletesDependency) {
  Lineage lineage;
  lineage.Append(Id("s", "k", 1));
  lineage.Remove(Id("s", "k", 1));
  EXPECT_TRUE(lineage.Empty());
}

TEST(LineageTest, TransferUnionsWithCompaction) {
  Lineage a;
  a.Append(Id("s", "k", 2));
  a.Append(Id("s", "x", 1));
  Lineage b;
  b.Append(Id("s", "k", 5));
  b.Append(Id("t", "y", 1));
  a.Transfer(b);
  EXPECT_EQ(a.Size(), 3u);
  EXPECT_TRUE(a.Contains(Id("s", "k", 5)));
  EXPECT_TRUE(a.Contains(Id("s", "x", 1)));
  EXPECT_TRUE(a.Contains(Id("t", "y", 1)));
}

TEST(LineageTest, TransferIsMonotone) {
  Lineage a;
  a.Append(Id("s", "k", 9));
  Lineage b;
  b.Append(Id("s", "k", 2));
  a.Transfer(b);  // older incoming version must not regress
  EXPECT_TRUE(a.Contains(Id("s", "k", 9)));
}

TEST(LineageTest, DepsForStoreFilters) {
  Lineage lineage;
  lineage.Append(Id("mysql", "a", 1));
  lineage.Append(Id("mysql", "b", 2));
  lineage.Append(Id("redis", "c", 3));
  EXPECT_EQ(lineage.DepsForStore("mysql").size(), 2u);
  EXPECT_EQ(lineage.DepsForStore("redis").size(), 1u);
  EXPECT_EQ(lineage.DepsForStore("s3").size(), 0u);
}

TEST(LineageTest, SerializeRoundTrip) {
  Lineage lineage(99);
  lineage.Append(Id("mysql", "posts/1", 3));
  lineage.Append(Id("sns", "topic/42", 1));
  auto restored = Lineage::Deserialize(lineage.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, lineage);
}

TEST(LineageTest, EmptyLineageSerializesSmall) {
  Lineage lineage(1);
  EXPECT_LE(lineage.WireSize(), 4u);
}

TEST(LineageTest, WireSizeGrowsWithDeps) {
  Lineage lineage(1);
  const size_t empty = lineage.WireSize();
  for (int i = 0; i < 8; ++i) {
    lineage.Append(Id("store", "key" + std::to_string(i), 1));
  }
  EXPECT_GT(lineage.WireSize(), empty + 8 * 8);
  // Paper §7.4: lineages in DSB stayed under 200 bytes.
  EXPECT_LT(lineage.WireSize(), 200u);
}

TEST(LineageTest, DeserializeGarbageFails) {
  EXPECT_FALSE(Lineage::Deserialize("\xFF\xFF\xFF\xFF").ok());
}

// Malformed-wire regression suite: the deserializer's fast path trusts the
// canonical ⟨store, key⟩ order our Serialize emits, so anything violating it
// must be rejected as InvalidArgument — never silently repaired into a
// lineage that other decoders would read differently.

TEST(LineageTest, DeserializeRejectsTruncatedBuffer) {
  Lineage lineage(7);
  lineage.Append(Id("store", "key", 3));
  lineage.Append(Id("store", "other", 1));
  const std::string wire = lineage.Serialize();
  // Every proper prefix (including empty) must fail cleanly.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto result = Lineage::Deserialize(std::string_view(wire).substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << "len=" << len;
  }
  ASSERT_TRUE(Lineage::Deserialize(wire).ok());
}

TEST(LineageTest, DeserializeRejectsTrailingBytes) {
  Lineage lineage(7);
  lineage.Append(Id("s", "k", 1));
  auto result = Lineage::Deserialize(lineage.Serialize() + "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

namespace {
// Hand-assembles a wire blob with the dependencies in the given order,
// bypassing Lineage's sorted invariant. Stores are interned in
// first-appearance order (which matches Serialize's table for sorted inputs
// and yields a deliberately non-canonical table for unsorted ones). Each
// dependency's locality scope is emitted exactly as given (the lineage wire
// carries one scope varint per dependency), so tests can plant masks
// Serialize would never produce.
std::string RawWire(uint64_t id, const std::vector<WriteId>& deps,
                    const std::vector<uint64_t>& scopes = {}) {
  Serializer s;
  s.WriteVarint(id);
  std::vector<std::string> stores;
  std::vector<size_t> index_of(deps.size());
  for (size_t i = 0; i < deps.size(); ++i) {
    auto it = std::find(stores.begin(), stores.end(), deps[i].store);
    index_of[i] = static_cast<size_t>(it - stores.begin());
    if (it == stores.end()) {
      stores.push_back(deps[i].store);
    }
  }
  s.WriteVarint(stores.size());
  for (const auto& store : stores) {
    s.WriteString(store);
  }
  s.WriteVarint(deps.size());
  for (size_t i = 0; i < deps.size(); ++i) {
    s.WriteVarint(index_of[i]);
    s.WriteString(deps[i].key);
    s.WriteVarint(deps[i].version);
    s.WriteVarint(i < scopes.size() ? scopes[i] : deps[i].scope);
  }
  return s.Release();
}
}  // namespace

TEST(LineageTest, DeserializeRejectsOutOfOrderDeps) {
  auto result = Lineage::Deserialize(RawWire(1, {Id("s", "b", 1), Id("s", "a", 1)}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Out of order across stores, too.
  result = Lineage::Deserialize(RawWire(1, {Id("t", "k", 1), Id("s", "k", 1)}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, DeserializeRejectsDuplicateStoreKeyPairs) {
  // Exact duplicates and same-pair-different-version both violate the at most
  // one version per ⟨store, key⟩ invariant.
  auto result = Lineage::Deserialize(RawWire(1, {Id("s", "k", 1), Id("s", "k", 1)}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  result = Lineage::Deserialize(RawWire(1, {Id("s", "k", 1), Id("s", "k", 5)}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, DeserializeRejectsCountBeyondPayload) {
  // Claims 3 dependencies but carries 1.
  Serializer s;
  s.WriteVarint(1);  // id
  s.WriteVarint(1);  // store table: one entry
  s.WriteString("s");
  s.WriteVarint(3);  // dependency count (a lie)
  s.WriteVarint(0);  // store index
  s.WriteString("k");
  s.WriteVarint(1);                // version
  s.WriteVarint(kAllRegionsMask);  // scope
  auto result = Lineage::Deserialize(s.Release());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, DeserializeRejectsUnreferencedStoreTableEntries) {
  // A canonical table is built *from* the dependency runs, so an entry no
  // dependency references (or a table with zero dependencies) cannot have
  // come from our Serialize.
  Serializer s;
  s.WriteVarint(1);  // id
  s.WriteVarint(2);  // store table claims two stores...
  s.WriteString("a");
  s.WriteString("b");
  s.WriteVarint(1);  // ...but the single dependency only references the first
  s.WriteVarint(0);
  s.WriteString("k");
  s.WriteVarint(1);
  s.WriteVarint(kAllRegionsMask);
  auto result = Lineage::Deserialize(s.Release());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  Serializer empty;
  empty.WriteVarint(1);  // id
  empty.WriteVarint(1);  // one store, zero dependencies
  empty.WriteString("a");
  empty.WriteVarint(0);
  result = Lineage::Deserialize(empty.Release());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, SerializeInternsRepeatedStoreNames) {
  // The whole point of the v2 wire: a store name is paid once, not per dep.
  Lineage lineage(1);
  const std::string store(32, 's');
  for (int i = 0; i < 10; ++i) {
    lineage.Append(WriteId{store, "key" + std::to_string(i), 1});
  }
  // One interned copy of the 32-byte name plus ~8 bytes per dependency.
  EXPECT_LT(lineage.WireSize(), 33 + 3 + 10 * 10);
  auto restored = Lineage::Deserialize(lineage.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, lineage);
}

// --- locality scopes (DESIGN.md §13) ----------------------------------------

WriteId ScopedId(const std::string& store, const std::string& key, uint64_t version,
                 RegionMask scope) {
  return WriteId{store, key, version, scope};
}

TEST(LineageTest, SerializePreservesLocalityScopes) {
  Lineage lineage(3);
  lineage.Append(ScopedId("s", "narrow", 1, RegionMaskOf({Region::kUs})));
  lineage.Append(ScopedId("s", "wide", 2, RegionMaskOf({Region::kEu, Region::kSg})));
  lineage.Append(Id("t", "default", 1));  // all-ones
  auto restored = Lineage::Deserialize(lineage.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, lineage);
  // operator== ignores scope, so compare the masks explicitly.
  ASSERT_EQ(restored->Size(), 3u);
  EXPECT_EQ(restored->deps()[0].scope, RegionMaskOf({Region::kUs}));
  EXPECT_EQ(restored->deps()[1].scope, RegionMaskOf({Region::kEu, Region::kSg}));
  EXPECT_EQ(restored->deps()[2].scope, kAllRegionsMask);
}

TEST(LineageTest, DeserializeRejectsZeroScope) {
  // A zero scope claims "enforce nowhere" — such a dependency is pruned, never
  // serialized, so on the wire it marks corruption.
  auto result = Lineage::Deserialize(RawWire(1, {Id("s", "k", 1)}, {0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, DeserializeRejectsScopeBeyondKnownRegions) {
  auto result = Lineage::Deserialize(
      RawWire(1, {Id("s", "k", 1)}, {static_cast<uint64_t>(kAllRegionsMask) + 1}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // A multi-byte varint mask is just as foreign.
  result = Lineage::Deserialize(RawWire(1, {Id("s", "k", 1)}, {1u << 20}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, DeserializeRejectsTruncatedScope) {
  // Cut the wire exactly at the final dependency's scope byte.
  const std::string wire = RawWire(1, {Id("s", "k", 1)});
  auto result = Lineage::Deserialize(std::string_view(wire).substr(0, wire.size() - 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LineageTest, AppendNormalizesZeroScopeToUnknown) {
  Lineage lineage;
  lineage.Append(ScopedId("s", "k", 1, 0));
  EXPECT_EQ(lineage.deps()[0].scope, kAllRegionsMask);
}

TEST(LineageTest, AppendNewerVersionAdoptsItsScope) {
  Lineage lineage;
  lineage.Append(ScopedId("s", "k", 1, RegionMaskOf({Region::kUs, Region::kEu})));
  // A newer write restarts from its store's scope, even a broader one.
  lineage.Append(ScopedId("s", "k", 2, RegionMaskOf({Region::kSg})));
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kSg}));
  // An older re-append changes nothing.
  lineage.Append(ScopedId("s", "k", 1, kAllRegionsMask));
  EXPECT_EQ(lineage.deps()[0].version, 2u);
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kSg}));
}

TEST(LineageTest, AppendEqualVersionIntersectsScopes) {
  Lineage lineage;
  lineage.Append(ScopedId("s", "k", 1, RegionMaskOf({Region::kUs, Region::kEu})));
  lineage.Append(ScopedId("s", "k", 1, RegionMaskOf({Region::kEu, Region::kSg})));
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kEu}));
  // A disjoint claim would intersect to zero — Append is not a pruning point,
  // so the existing (broader) claim is kept instead.
  lineage.Append(ScopedId("s", "k", 1, RegionMaskOf({Region::kUs})));
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kEu}));
}

TEST(LineageTest, TransferMergesScopes) {
  Lineage a;
  a.Append(ScopedId("s", "same", 1, RegionMaskOf({Region::kUs, Region::kEu})));
  a.Append(ScopedId("s", "stale", 1, kAllRegionsMask));
  Lineage b;
  b.Append(ScopedId("s", "same", 1, RegionMaskOf({Region::kEu, Region::kSg})));
  b.Append(ScopedId("s", "stale", 4, RegionMaskOf({Region::kSg})));
  a.Transfer(b);
  ASSERT_EQ(a.Size(), 2u);
  // Equal versions intersect; a version conflict keeps the winner's scope.
  EXPECT_EQ(a.deps()[0].scope, RegionMaskOf({Region::kEu}));
  EXPECT_EQ(a.deps()[1].version, 4u);
  EXPECT_EQ(a.deps()[1].scope, RegionMaskOf({Region::kSg}));
}

TEST(LineageTest, PruneNarrowsScopeAndDropsVisibleEverywhere) {
  FaultInjector injector;
  auto options = KvStore::DefaultOptions("prune-s", {Region::kUs, Region::kEu});
  options.replication.median_millis = 1.0;
  options.fault_injector = &injector;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  store.Set(Region::kUs, "done", "v");
  store.DrainReplication();
  injector.PauseStore("prune-s", Region::kEu);
  store.Set(Region::kUs, "half", "v");
  store.DrainReplication();  // shipped, but buffered behind the pause

  Lineage lineage(9);
  lineage.Append(Id("prune-s", "half", 1));  // visible at US only
  lineage.Append(Id("prune-s", "done", 1));  // visible at both replicas
  lineage.Append(Id("prune-s", "cold", 1));  // visible nowhere yet
  lineage.Append(Id("unknown-store", "k", 1));
  EXPECT_EQ(PruneVisibleEverywhere(lineage, registry), 1u);
  ASSERT_EQ(lineage.Size(), 3u);
  // The store only replicates to {US, EU}, so scopes narrow to the footprint;
  // "half" additionally sheds the US bit it was proven visible at.
  EXPECT_EQ(lineage.deps()[0].key, "cold");
  EXPECT_EQ(lineage.deps()[0].scope, RegionMaskOf({Region::kUs, Region::kEu}));
  EXPECT_EQ(lineage.deps()[1].key, "half");
  EXPECT_EQ(lineage.deps()[1].scope, RegionMaskOf({Region::kEu}));
  // Dependencies on stores the registry does not know keep their full scope.
  EXPECT_EQ(lineage.deps()[2].store, "unknown-store");
  EXPECT_EQ(lineage.deps()[2].scope, kAllRegionsMask);
  injector.ResumeStore("prune-s", Region::kEu);
}

TEST(LineageTest, ToStringListsDeps) {
  Lineage lineage(5);
  lineage.Append(Id("s", "k", 1));
  const std::string text = lineage.ToString();
  EXPECT_NE(text.find("id=5"), std::string::npos);
  EXPECT_NE(text.find("s:k@v1"), std::string::npos);
}

// Property sweep: serialize∘deserialize is the identity for random lineages.
class LineageRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(LineageRoundTripTest, RandomRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    Lineage lineage(rng.NextUint64());
    const int deps = static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < deps; ++i) {
      lineage.Append(Id("store" + std::to_string(rng.NextBelow(6)),
                        "key" + std::to_string(rng.NextBelow(1000)), 1 + rng.NextBelow(100)));
    }
    auto restored = Lineage::Deserialize(lineage.Serialize());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, lineage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineageRoundTripTest, ::testing::Range(1, 6));

// Property: transfer is associative-ish (set union semantics with max-version
// compaction) — (a ∪ b) ∪ c == a ∪ (b ∪ c).
TEST(LineageTest, TransferIsAssociative) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_lineage = [&rng] {
      Lineage lineage;
      const int deps = static_cast<int>(rng.NextBelow(10));
      for (int i = 0; i < deps; ++i) {
        lineage.Append(WriteId{"s" + std::to_string(rng.NextBelow(3)),
                               "k" + std::to_string(rng.NextBelow(5)), 1 + rng.NextBelow(9)});
      }
      return lineage;
    };
    const Lineage a = random_lineage();
    const Lineage b = random_lineage();
    const Lineage c = random_lineage();

    Lineage left = a;
    left.Transfer(b);
    left.Transfer(c);

    Lineage bc = b;
    bc.Transfer(c);
    Lineage right = a;
    right.Transfer(bc);

    EXPECT_EQ(left.deps(), right.deps());
  }
}

}  // namespace
}  // namespace antipode
