#include <gtest/gtest.h>

#include <thread>

#include "src/context/baggage.h"
#include "src/context/request_context.h"

namespace antipode {
namespace {

TEST(BaggageTest, SetGetErase) {
  Baggage baggage;
  EXPECT_EQ(baggage.Get("k"), std::nullopt);
  baggage.Set("k", "v");
  EXPECT_EQ(baggage.Get("k"), "v");
  baggage.Set("k", "v2");
  EXPECT_EQ(baggage.Get("k"), "v2");
  baggage.Erase("k");
  EXPECT_EQ(baggage.Get("k"), std::nullopt);
}

TEST(BaggageTest, EmptyAndSize) {
  Baggage baggage;
  EXPECT_TRUE(baggage.Empty());
  baggage.Set("a", "1");
  baggage.Set("b", "2");
  EXPECT_EQ(baggage.Size(), 2u);
  EXPECT_FALSE(baggage.Empty());
}

TEST(BaggageTest, SerializeRoundTrip) {
  Baggage baggage;
  baggage.Set("trace-id", "abc123");
  baggage.Set("antipode-lineage", std::string("\x01\x02\x00\x03", 4));
  Baggage restored = Baggage::Deserialize(baggage.Serialize());
  EXPECT_EQ(restored.Get("trace-id"), "abc123");
  EXPECT_EQ(restored.Get("antipode-lineage"), std::string("\x01\x02\x00\x03", 4));
  EXPECT_EQ(restored.Size(), 2u);
}

TEST(BaggageTest, DeserializeGarbageYieldsEmpty) {
  Baggage restored = Baggage::Deserialize("not a baggage blob \xFF\xFF");
  EXPECT_TRUE(restored.Empty());  // all-or-nothing, never a parsed prefix
}

TEST(BaggageTest, WireSizeGrowsWithContent) {
  Baggage baggage;
  const size_t empty = baggage.WireSize();
  baggage.Set("key", "value");
  EXPECT_GT(baggage.WireSize(), empty);
}

TEST(RequestContextTest, NoContextByDefault) {
  EXPECT_EQ(RequestContext::Current(), nullptr);
  EXPECT_EQ(RequestContext::SerializeCurrent(), "");
}

TEST(RequestContextTest, ScopedContextInstallsAndRestores) {
  {
    ScopedContext scoped(RequestContext(42));
    ASSERT_NE(RequestContext::Current(), nullptr);
    EXPECT_EQ(RequestContext::Current()->trace_id(), 42u);
  }
  EXPECT_EQ(RequestContext::Current(), nullptr);
}

TEST(RequestContextTest, ScopedContextsNest) {
  ScopedContext outer(RequestContext(1));
  EXPECT_EQ(RequestContext::Current()->trace_id(), 1u);
  {
    ScopedContext inner(RequestContext(2));
    EXPECT_EQ(RequestContext::Current()->trace_id(), 2u);
  }
  EXPECT_EQ(RequestContext::Current()->trace_id(), 1u);
}

TEST(RequestContextTest, ContextIsThreadLocal) {
  ScopedContext scoped(RequestContext(7));
  std::thread other([] { EXPECT_EQ(RequestContext::Current(), nullptr); });
  other.join();
  EXPECT_EQ(RequestContext::Current()->trace_id(), 7u);
}

TEST(RequestContextTest, SerializeDeserializePreservesBaggage) {
  RequestContext context(99);
  context.baggage().Set("k", "v");
  RequestContext restored = RequestContext::Deserialize(context.Serialize());
  EXPECT_EQ(restored.trace_id(), 99u);
  EXPECT_EQ(restored.baggage().Get("k"), "v");
}

TEST(RequestContextTest, SerializeCurrentCapturesLiveBaggage) {
  ScopedContext scoped(RequestContext(5));
  RequestContext::Current()->baggage().Set("x", "y");
  RequestContext restored = RequestContext::Deserialize(RequestContext::SerializeCurrent());
  EXPECT_EQ(restored.baggage().Get("x"), "y");
}

TEST(MergeTest, DefaultPolicyOverwrites) {
  ScopedContext scoped(RequestContext(1));
  RequestContext::Current()->baggage().Set("plain", "old");
  Baggage incoming;
  incoming.Set("plain", "new");
  RequestContext::Current()->MergeBaggage(incoming);
  EXPECT_EQ(RequestContext::Current()->baggage().Get("plain"), "new");
}

}  // namespace
}  // namespace antipode
