#include "src/antipode/lineage_api.h"

#include <gtest/gtest.h>

#include <string>

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

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

// The context frame ContextSerializationIsByteStable pins: trace id 0x1234,
// a three-dep lineage and a span context.
constexpr char kGoldenContextHex[] =
    "3412000000000000680310616e7469706f64652d6c696e65616765324d02056e6f7469660c706f7374"
    "2d73746f726167650300036e2f39ac020f0106706f73742f3103030106706f73742f32040f0b6f62"
    "732d7370616e2d69640234320c6f62732d74726163652d696406616263646566";

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
  EXPECT_EQ(Hex(RequestContext::SerializeCurrent()), kGoldenContextHex);
}

// The context decoders are all-or-nothing: every strict prefix of the golden
// frame, and the frame with a trailing byte, decodes to an empty context —
// never to the trace id or baggage entries that happened to parse. The same
// holds for the baggage blob inside the frame.
TEST(LineageApiTest, TruncatedContextFramesDecodeEmpty) {
  const std::string frame = Unhex(kGoldenContextHex);
  RequestContext full = RequestContext::Deserialize(frame);
  EXPECT_EQ(full.trace_id(), 0x1234u);
  EXPECT_EQ(full.baggage().Size(), 3u);
  EXPECT_EQ(Hex(full.Serialize()), kGoldenContextHex);

  for (size_t len = 0; len < frame.size(); ++len) {
    SCOPED_TRACE("frame prefix length " + std::to_string(len));
    const RequestContext cut = RequestContext::Deserialize(frame.substr(0, len));
    EXPECT_EQ(cut.trace_id(), 0u);
    EXPECT_TRUE(cut.baggage().Empty());
  }
  const RequestContext padded = RequestContext::Deserialize(frame + std::string(1, '\0'));
  EXPECT_EQ(padded.trace_id(), 0u);
  EXPECT_TRUE(padded.baggage().Empty());

  // Bytes 0-7 are the trace id, byte 8 the baggage blob's length varint.
  const std::string blob = frame.substr(9);
  ASSERT_TRUE(Baggage::TryDeserialize(blob).has_value());
  for (size_t len = 0; len < blob.size(); ++len) {
    SCOPED_TRACE("baggage prefix length " + std::to_string(len));
    EXPECT_FALSE(Baggage::TryDeserialize(blob.substr(0, len)).has_value());
    EXPECT_TRUE(Baggage::Deserialize(blob.substr(0, len)).Empty());
  }
  EXPECT_TRUE(Baggage::Deserialize(blob + std::string(1, '\0')).Empty());
  // A short entry count: the blob claims four entries but carries three.
  std::string overcounted = blob;
  overcounted[0] = 4;
  EXPECT_TRUE(Baggage::Deserialize(overcounted).Empty());
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

// ---- AppendWrite: the *Ctx write contract ------------------------------------

// The write frames from the context's own lineage object (no copy), and the
// new dependency lands in that lineage in place.
TEST(LineageApiTest, AppendWriteFramesTheCurrentLineageByReference) {
  ScopedContext scoped(RequestContext(1));
  const uint64_t id = LineageApi::Root().id();
  LineageApi::Append(Id("prior"));
  const void* installed = RequestContext::Current()->NativeObject();
  const void* framed = nullptr;
  Status status = LineageApi::AppendWrite([&](const Lineage& lineage) {
    framed = &lineage;
    EXPECT_TRUE(lineage.Contains(Id("prior")));
    EXPECT_FALSE(lineage.Contains(Id("new")));
    return Id("new");
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(framed, installed);
  EXPECT_EQ(RequestContext::Current()->NativeObject(), installed);  // unshared: no clone
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->id(), id);
  EXPECT_EQ(current->Size(), 2u);
  EXPECT_TRUE(current->Contains(Id("new")));
}

TEST(LineageApiTest, AppendWriteWithoutLineageInstallsExactlyTheNewDep) {
  ScopedContext scoped(RequestContext(1));
  Status status = LineageApi::AppendWrite([](const Lineage& lineage) {
    EXPECT_TRUE(lineage.Empty());
    return Id("k", 7);
  });
  EXPECT_TRUE(status.ok());
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->id(), 0u);
  EXPECT_EQ(current->Size(), 1u);
  EXPECT_TRUE(current->Contains(Id("k", 7)));
}

TEST(LineageApiTest, AppendWriteWithoutContextInstallsNothing) {
  bool wrote = false;
  Status status = LineageApi::AppendWrite([&](const Lineage& lineage) {
    wrote = true;
    EXPECT_TRUE(lineage.Empty());
    return Id("k");
  });
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(wrote);
  EXPECT_EQ(RequestContext::Current(), nullptr);
  EXPECT_EQ(LineageApi::Current(), std::nullopt);
}

// Copy-on-write: a context copied from another shares its lineage object, and
// a write in the copy must clone it rather than mutate the original's.
TEST(LineageApiTest, AppendWriteOnCopiedContextLeavesTheOriginalUnchanged) {
  ScopedContext original(RequestContext(1));
  LineageApi::Root();
  LineageApi::Append(Id("shared"));
  {
    ScopedContext copy(*RequestContext::Current());
    ASSERT_TRUE(LineageApi::AppendWrite([](const Lineage&) { return Id("new"); }).ok());
    EXPECT_EQ(LineageApi::Current()->Size(), 2u);
    EXPECT_TRUE(LineageApi::Current()->Contains(Id("new")));
  }
  auto current = LineageApi::Current();
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->Size(), 1u);
  EXPECT_TRUE(current->Contains(Id("shared")));
  EXPECT_FALSE(current->Contains(Id("new")));
}

TEST(LineageApiTest, AppendWriteErrorLeavesTheLineageUntouched) {
  ScopedContext scoped(RequestContext(1));
  Status status = LineageApi::AppendWrite(
      [](const Lineage&) -> Result<WriteId> { return Status::Unavailable("store down"); });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(LineageApi::Current(), std::nullopt);
}

}  // namespace
}  // namespace antipode
