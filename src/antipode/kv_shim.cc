#include "src/antipode/kv_shim.h"

#include "src/antipode/framing.h"

namespace antipode {

WriteId KvShim::FramedSet(Region region, const std::string& key, std::string_view value,
                          const Lineage& lineage) {
  return MakeWriteId(key, kv_->Set(region, key, FrameValue(lineage, value)));
}

Lineage KvShim::Write(Region region, const std::string& key, std::string_view value,
                      Lineage lineage) {
  lineage.Append(FramedSet(region, key, value, lineage));
  return lineage;
}

Result<KvShim::ReadResult> KvShim::Read(Region region, const std::string& key) const {
  EntryHandle entry = kv_->Get(region, key);
  if (!entry || entry->bytes.empty()) {
    return Status::NotFound("kv read miss: " + key);
  }
  ReadResult out;
  FramedValue framed = UnframeValue(entry->bytes);
  out.value = std::move(framed.value);
  out.lineage = std::move(framed.lineage);
  out.lineage.Append(MakeWriteId(key, entry->version));
  return out;
}

Status KvShim::WriteCtx(Region region, const std::string& key, std::string_view value) {
  return LineageApi::AppendWrite(
      [&](const Lineage& lineage) { return FramedSet(region, key, value, lineage); });
}

Result<std::string> KvShim::ReadCtx(Region region, const std::string& key) const {
  auto result = Read(region, key);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->value);
}

}  // namespace antipode
