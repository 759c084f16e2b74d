#include "src/antipode/lineage_api.h"

#include <gtest/gtest.h>

#include "src/context/request_context.h"
#include "src/obs/trace.h"

namespace antipode {
namespace {

WriteId Id(const std::string& key, uint64_t version = 1) {
  return WriteId{"store", key, version};
}

TEST(LineageApiTest, NoContextMeansNoLineage) {
  EXPECT_EQ(LineageApi::Current(), std::nullopt);
  LineageApi::Append(Id("k"));  // must not crash
  LineageApi::Stop();
}

TEST(LineageApiTest, RootInstallsEmptyLineage) {
  ScopedContext scoped(RequestContext(1));
  Lineage lineage = LineageApi::Root();
  EXPECT_TRUE(lineage.Empty());
  EXPECT_NE(lineage.id(), 0u);
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->id(), lineage.id());
}

TEST(LineageApiTest, RootIdsAreUnique) {
  ScopedContext scoped(RequestContext(1));
  const uint64_t a = LineageApi::Root().id();
  const uint64_t b = LineageApi::Root().id();
  EXPECT_NE(a, b);
}

TEST(LineageApiTest, AppendUpdatesCurrent) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("k1"));
  LineageApi::Append(Id("k2"));
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->Size(), 2u);
  EXPECT_TRUE(current->Contains(Id("k1")));
}

TEST(LineageApiTest, RemoveDropsDependency) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("k1"));
  LineageApi::Remove(Id("k1"));
  EXPECT_TRUE(LineageApi::Current()->Empty());
}

TEST(LineageApiTest, StopDiscardsLineage) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("k1"));
  LineageApi::Stop();
  EXPECT_EQ(LineageApi::Current(), std::nullopt);
}

TEST(LineageApiTest, TransferMergesIntoCurrent) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("mine"));
  Lineage other;
  other.Append(Id("theirs"));
  LineageApi::Transfer(other);
  auto current = LineageApi::Current();
  EXPECT_TRUE(current->Contains(Id("mine")));
  EXPECT_TRUE(current->Contains(Id("theirs")));
}

TEST(LineageApiTest, TransferWithoutLineageInstallsCopy) {
  ScopedContext scoped(RequestContext(1));
  Lineage other(42);
  other.Append(Id("dep"));
  LineageApi::Transfer(other);
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_TRUE(current->Contains(Id("dep")));
}

TEST(LineageApiTest, RootReplacesExistingLineage) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("old"));
  LineageApi::Root();
  EXPECT_TRUE(LineageApi::Current()->Empty());
}

TEST(LineageApiTest, LineageSurvivesContextSerialization) {
  ScopedContext scoped(RequestContext(9));
  LineageApi::Root();
  LineageApi::Append(Id("k", 5));
  const std::string blob = RequestContext::SerializeCurrent();
  ScopedContext other(RequestContext::Deserialize(blob));
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_TRUE(current->Contains(Id("k", 5)));
}

TEST(LineageApiTest, MergerUnionsLineagesAcrossContexts) {
  ScopedContext scoped(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("caller-dep"));

  Lineage remote;
  remote.Append(Id("callee-dep"));
  Baggage incoming;
  incoming.Set(kLineageBaggageKey, remote.Serialize());
  RequestContext::Current()->MergeBaggage(incoming);

  auto current = LineageApi::Current();
  EXPECT_TRUE(current->Contains(Id("caller-dep")));
  EXPECT_TRUE(current->Contains(Id("callee-dep")));
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

// Pins the context wire format: a fixed lineage and span context must
// serialize to exactly these bytes.
TEST(LineageApiTest, ContextSerializationIsByteStable) {
  ScopedContext scoped(RequestContext(0x1234));
  Lineage lineage(77);
  lineage.Append(
      WriteId{"post-storage", "post/1", 3, RegionBit(Region::kUs) | RegionBit(Region::kEu)});
  lineage.Append(WriteId{"notif", "n/9", 300});
  LineageApi::Install(lineage);
  LineageApi::Append(WriteId{"post-storage", "post/2", 4});
  SetCurrentSpanContext(SpanContext{0xabcdef, 0x42});
  EXPECT_EQ(Hex(RequestContext::SerializeCurrent()),
            "3412000000000000680310616e7469706f64652d6c696e65616765324d02056e6f7469660c706f7374"
            "2d73746f726167650300036e2f39ac020f0106706f73742f3103030106706f73742f32040f0b6f62"
            "732d7370616e2d69640234320c6f62732d74726163652d696406616263646566");
}

TEST(LineageApiTest, NestedContextsHaveIndependentLineages) {
  ScopedContext outer(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("outer"));
  {
    ScopedContext inner(RequestContext(2));
    LineageApi::Root();
    LineageApi::Append(Id("inner"));
    EXPECT_FALSE(LineageApi::Current()->Contains(Id("outer")));
  }
  EXPECT_TRUE(LineageApi::Current()->Contains(Id("outer")));
  EXPECT_FALSE(LineageApi::Current()->Contains(Id("inner")));
}

}  // namespace
}  // namespace antipode
