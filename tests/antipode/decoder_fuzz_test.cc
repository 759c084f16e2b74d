// Seeded mutation fuzzing of the decoders on the lineage path: the lineage
// wire (Lineage::Deserialize), the shim value frame (UnframeValue) and the
// length-prefixed view read under both (Deserializer::ReadView). Inputs are
// valid encodings mutated by truncation, byte flips, splices of two valid
// encodings and injected huge or overlong varints. Every input must either
// decode to something that re-encodes to exactly the input bytes, or be
// rejected — never crash, never decode "successfully" into something else.
// Fixed seeds, no corpus on disk: each decoder sees the same 100k inputs on
// every run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/antipode/framing.h"
#include "src/antipode/lineage.h"
#include "src/common/random.h"
#include "src/common/serialization.h"

namespace antipode {
namespace {

constexpr int kInputsPerDecoder = 100'000;

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out(rng.NextBelow(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBelow(256));
  return out;
}

// Values drawn from every varint width, including the 10-byte maximum.
uint64_t RandomVarintValue(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return rng.NextBelow(128);
    case 1:
      return rng.NextBelow(1u << 14);
    case 2:
      return rng.NextUint64() >> rng.NextBelow(64);
    default:
      return ~uint64_t{0} - rng.NextBelow(3);
  }
}

// A random canonical lineage: a few stores from a small pool (one long
// enough to spill a short-string buffer), sorted distinct keys per store.
Lineage RandomLineage(Rng& rng) {
  static const char* const kStores[] = {"a", "kv", "notifications-store-eu", "sql"};
  Lineage lineage(RandomVarintValue(rng));
  const size_t deps = rng.NextBelow(7);
  for (size_t i = 0; i < deps; ++i) {
    WriteId dep{kStores[rng.NextBelow(4)], RandomBytes(rng, 20), RandomVarintValue(rng)};
    dep.scope = static_cast<RegionMask>(1 + rng.NextBelow(kAllRegionsMask));
    lineage.Append(std::move(dep));
  }
  return lineage;
}

// Bytes a decoder must treat as suspect: varints that overflow 64 bits,
// overlong (non-minimal) encodings, and canonical huge values.
std::string HugeVarint(Rng& rng) {
  std::string out;
  switch (rng.NextBelow(3)) {
    case 0:  // 9 continuation bytes, then more than the one bit that fits
      out.assign(9, '\xFF');
      out.push_back(static_cast<char>(2 + rng.NextBelow(126)));
      break;
    case 1:  // a value padded with redundant zero groups
      AppendVarint(out, rng.NextBelow(128));
      out.back() = static_cast<char>(out.back() | 0x80);
      for (size_t i = rng.NextBelow(3); i > 0; --i) out.push_back('\x80');
      out.push_back('\0');
      break;
    default:
      AppendVarint(out, ~uint64_t{0} - rng.NextBelow(1000));
      break;
  }
  return out;
}

// One to three mutations of `valid`, drawing splice partners from `corpus`.
std::string Mutate(Rng& rng, std::string input, const std::vector<std::string>& corpus) {
  for (size_t rounds = 1 + rng.NextBelow(3); rounds > 0; --rounds) {
    switch (rng.NextBelow(4)) {
      case 0:  // truncation
        input.resize(rng.NextBelow(input.size() + 1));
        break;
      case 1:  // byte flips
        for (size_t flips = 1 + rng.NextBelow(3); flips > 0 && !input.empty(); --flips) {
          input[rng.NextBelow(input.size())] ^= static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 2: {  // splice: a prefix of this input, a suffix of another valid one
        const std::string& other = corpus[rng.NextBelow(corpus.size())];
        input = input.substr(0, rng.NextBelow(input.size() + 1)) +
                other.substr(rng.NextBelow(other.size() + 1));
        break;
      }
      default: {  // a huge or overlong varint, overwriting or inserted
        const size_t at = rng.NextBelow(input.size() + 1);
        const std::string varint = HugeVarint(rng);
        if (rng.NextBelow(2) == 0) {
          input.insert(at, varint);
        } else {
          input.replace(at, std::min(varint.size(), input.size() - at), varint);
        }
        break;
      }
    }
  }
  return input;
}

std::vector<std::string> Corpus(Rng& rng, std::string (*encode)(Rng&)) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 256; ++i) corpus.push_back(encode(rng));
  return corpus;
}

std::string EncodeLineage(Rng& rng) { return RandomLineage(rng).Serialize(); }

std::string EncodeFrame(Rng& rng) {
  return FrameValue(RandomLineage(rng), RandomBytes(rng, 24));
}

std::string EncodeStrings(Rng& rng) {
  std::string out;
  for (size_t n = 1 + rng.NextBelow(4); n > 0; --n) {
    AppendLengthPrefixed(out, RandomBytes(rng, 40));
  }
  return out;
}

TEST(DecoderFuzzTest, LineageDeserializeRoundTripsOrRejects) {
  Rng rng(0x11AE);
  const std::vector<std::string> corpus = Corpus(rng, &EncodeLineage);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kInputsPerDecoder; ++i) {
    const std::string input = Mutate(rng, corpus[rng.NextBelow(corpus.size())], corpus);
    auto lineage = Lineage::Deserialize(input);
    if (!lineage.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(lineage->Serialize(), input) << "input " << i << " decoded to "
                                           << lineage->ToString();
  }
  // Both outcomes must actually be exercised for the property to mean much.
  EXPECT_GT(accepted, kInputsPerDecoder / 100);
  EXPECT_GT(rejected, kInputsPerDecoder / 2);
}

TEST(DecoderFuzzTest, UnframeValueRoundTripsOrPassesThrough) {
  Rng rng(0xF4A3E);
  const std::vector<std::string> corpus = Corpus(rng, &EncodeFrame);
  int framed = 0;
  int passed_through = 0;
  for (int i = 0; i < kInputsPerDecoder; ++i) {
    const std::string input = Mutate(rng, corpus[rng.NextBelow(corpus.size())], corpus);
    const FramedValue out = UnframeValue(input);
    if (out.lineage.Empty() && out.value == input) {
      ++passed_through;  // rejected as a frame: the bytes come back whole
      continue;
    }
    ++framed;
    ASSERT_EQ(FrameValue(out.lineage, out.value), input) << "input " << i;
  }
  EXPECT_GT(framed, kInputsPerDecoder / 100);
  EXPECT_GT(passed_through, kInputsPerDecoder / 2);
}

TEST(DecoderFuzzTest, ReadViewRoundTripsOrRejects) {
  Rng rng(0x5EAD);
  const std::vector<std::string> corpus = Corpus(rng, &EncodeStrings);
  int views = 0;
  int rejected = 0;
  for (int i = 0; i < kInputsPerDecoder; ++i) {
    const std::string input = Mutate(rng, corpus[rng.NextBelow(corpus.size())], corpus);
    Deserializer d(input);
    while (!d.AtEnd()) {
      const size_t start = input.size() - d.Remaining();
      auto view = d.ReadView();
      if (!view.ok()) {
        ++rejected;
        ASSERT_EQ(input.size() - d.Remaining(), start) << "a failed read moved the cursor";
        break;
      }
      ++views;
      // A view into the input, not a copy, re-encoding to the bytes consumed.
      ASSERT_TRUE(view->data() >= input.data() &&
                  view->data() + view->size() <= input.data() + input.size());
      std::string reencoded;
      AppendLengthPrefixed(reencoded, *view);
      ASSERT_EQ(reencoded, input.substr(start, input.size() - d.Remaining() - start))
          << "input " << i;
    }
  }
  EXPECT_GT(views, kInputsPerDecoder);
  EXPECT_GT(rejected, kInputsPerDecoder / 4);
}

}  // namespace
}  // namespace antipode
