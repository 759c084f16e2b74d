#include "src/common/serialization.h"

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace antipode {
namespace {

TEST(SerializationTest, FixedIntegersRoundTrip) {
  Serializer s;
  s.WriteUint8(0xAB);
  s.WriteUint32(0xDEADBEEF);
  s.WriteUint64(0x0123456789ABCDEFULL);
  Deserializer d(s.data());
  EXPECT_EQ(*d.ReadUint8(), 0xAB);
  EXPECT_EQ(*d.ReadUint32(), 0xDEADBEEFu);
  EXPECT_EQ(*d.ReadUint64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializationTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
                     0xFFFFFFFFFFFFFFFFULL}) {
    Serializer s;
    s.WriteVarint(v);
    Deserializer d(s.data());
    EXPECT_EQ(*d.ReadVarint(), v) << v;
  }
}

TEST(SerializationTest, VarintIsCompactForSmallValues) {
  Serializer s;
  s.WriteVarint(5);
  EXPECT_EQ(s.size(), 1u);
  Serializer s2;
  s2.WriteVarint(300);
  EXPECT_EQ(s2.size(), 2u);
}

TEST(SerializationTest, StringsRoundTrip) {
  Serializer s;
  s.WriteString("");
  s.WriteString("hello");
  s.WriteString(std::string(1000, 'x'));
  std::string with_nulls("a\0b", 3);
  s.WriteString(with_nulls);
  Deserializer d(s.data());
  EXPECT_EQ(*d.ReadString(), "");
  EXPECT_EQ(*d.ReadString(), "hello");
  EXPECT_EQ(d.ReadString()->size(), 1000u);
  EXPECT_EQ(*d.ReadString(), with_nulls);
}

TEST(SerializationTest, TruncatedBufferFailsGracefully) {
  Serializer s;
  s.WriteUint64(42);
  Deserializer d(std::string_view(s.data()).substr(0, 4));
  auto v = d.ReadUint64();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializationTest, TruncatedStringFails) {
  Serializer s;
  s.WriteString("hello world");
  Deserializer d(std::string_view(s.data()).substr(0, 5));
  EXPECT_FALSE(d.ReadString().ok());
}

// A varint length near 2^64 must not wrap the bounds check: the read fails
// and the cursor does not move.
TEST(SerializationTest, HugeStringLengthIsRejected) {
  Serializer s;
  s.WriteVarint(~uint64_t{0});
  s.WriteUint8('a');
  s.WriteUint8('b');
  s.WriteUint8('c');
  Deserializer d(s.data());
  const size_t before = d.Remaining();
  auto v = d.ReadString();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(d.Remaining(), before);
}

TEST(SerializationTest, TruncatedVarintFails) {
  std::string bad("\xFF\xFF", 2);  // continuation bits with no terminator
  Deserializer d(bad);
  EXPECT_FALSE(d.ReadVarint().ok());
}

TEST(SerializationTest, OverlongVarintFails) {
  std::string bad(11, '\xFF');
  Deserializer d(bad);
  EXPECT_FALSE(d.ReadVarint().ok());
}

TEST(SerializationTest, RemainingTracksPosition) {
  Serializer s;
  s.WriteUint32(1);
  s.WriteUint32(2);
  Deserializer d(s.data());
  EXPECT_EQ(d.Remaining(), 8u);
  d.ReadUint32();
  EXPECT_EQ(d.Remaining(), 4u);
}

// Fuzz-ish property: random sequences of typed writes always read back.
TEST(SerializationTest, RandomRoundTripProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Serializer s;
    std::vector<int> kinds;
    std::vector<uint64_t> ints;
    std::vector<std::string> strings;
    const int ops = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < ops; ++i) {
      const int kind = static_cast<int>(rng.NextBelow(3));
      kinds.push_back(kind);
      if (kind == 0) {
        ints.push_back(rng.NextUint64());
        s.WriteUint64(ints.back());
      } else if (kind == 1) {
        ints.push_back(rng.NextUint64());
        s.WriteVarint(ints.back());
      } else {
        strings.push_back(std::string(rng.NextBelow(50), 'q'));
        s.WriteString(strings.back());
      }
    }
    Deserializer d(s.data());
    size_t int_index = 0;
    size_t string_index = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        EXPECT_EQ(*d.ReadUint64(), ints[int_index++]);
      } else if (kind == 1) {
        EXPECT_EQ(*d.ReadVarint(), ints[int_index++]);
      } else {
        EXPECT_EQ(*d.ReadString(), strings[string_index++]);
      }
    }
    EXPECT_TRUE(d.AtEnd());
  }
}

// Random garbage never crashes the deserializer.
TEST(SerializationTest, GarbageInputIsSafe) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    const size_t len = rng.NextBelow(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    Deserializer d(garbage);
    (void)d.ReadString();
    (void)d.ReadVarint();
    (void)d.ReadUint64();
  }
}

}  // namespace
}  // namespace antipode
