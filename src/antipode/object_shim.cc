#include "src/antipode/object_shim.h"

#include "src/antipode/framing.h"

namespace antipode {

WriteId ObjectShim::FramedPut(Region region, const std::string& bucket, const std::string& key,
                              std::string_view value, const Lineage& lineage) {
  const uint64_t version = objects_->PutObject(region, bucket, key, FrameValue(lineage, value));
  return MakeWriteId(ObjectStore::ObjectKey(bucket, key), version);
}

Lineage ObjectShim::PutObject(Region region, const std::string& bucket, const std::string& key,
                              std::string_view value, Lineage lineage) {
  lineage.Append(FramedPut(region, bucket, key, value, lineage));
  return lineage;
}

Result<ObjectShim::ReadResult> ObjectShim::GetObject(Region region, const std::string& bucket,
                                                     const std::string& key) const {
  const std::string object_key = ObjectStore::ObjectKey(bucket, key);
  EntryHandle entry = objects_->Get(region, object_key);
  if (!entry || entry->bytes.empty()) {
    return Status::NotFound("object read miss: " + object_key);
  }
  ReadResult out;
  FramedValue framed = UnframeValue(entry->bytes);
  out.value = std::move(framed.value);
  out.lineage = std::move(framed.lineage);
  out.lineage.Append(MakeWriteId(object_key, entry->version));
  return out;
}

Status ObjectShim::PutObjectCtx(Region region, const std::string& bucket, const std::string& key,
                                std::string_view value) {
  return LineageApi::AppendWrite([&](const Lineage& lineage) {
    return FramedPut(region, bucket, key, value, lineage);
  });
}

Result<std::string> ObjectShim::GetObjectCtx(Region region, const std::string& bucket,
                                             const std::string& key) const {
  auto result = GetObject(region, bucket, key);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->value);
}

}  // namespace antipode
