#include "src/antipode/framing.h"

#include "src/common/serialization.h"

namespace antipode {
namespace {

// Magic prefix distinguishing framed values from raw bytes written by
// non-instrumented services (incremental deployment, §3.4).
constexpr char kFrameMagic[2] = {'\x7F', 'L'};

}  // namespace

std::string FrameValue(const Lineage& lineage, std::string_view value) {
  // One-pass, exact-size encode: WireSize() gives the length prefix up front,
  // so the lineage serializes straight into the frame — no intermediate blob.
  const size_t lineage_bytes = lineage.WireSize();
  std::string out;
  out.reserve(sizeof(kFrameMagic) + VarintWireSize(lineage_bytes) + lineage_bytes + value.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  AppendVarint(out, lineage_bytes);
  lineage.SerializeTo(out);
  out.append(value.data(), value.size());
  return out;
}

FramedValue UnframeValue(std::string_view stored) {
  FramedValue out;
  if (stored.size() >= sizeof(kFrameMagic) &&
      stored.compare(0, sizeof(kFrameMagic), kFrameMagic, sizeof(kFrameMagic)) == 0) {
    // The lineage blob is decoded in place (a view into `stored`); only the
    // value is copied out.
    Deserializer d(stored.substr(sizeof(kFrameMagic)));
    auto blob = d.ReadView();
    if (blob.ok()) {
      auto lineage = Lineage::Deserialize(*blob);
      if (lineage.ok()) {
        out.lineage = std::move(*lineage);
        out.value.assign(stored.substr(stored.size() - d.Remaining()));
        return out;
      }
    }
  }
  // No valid frame — raw bytes, or a frame whose lineage does not decode:
  // pass the bytes through whole rather than guess at a value.
  out.value.assign(stored.data(), stored.size());
  return out;
}

}  // namespace antipode
