// Shim for the S3-like ObjectStore.

#ifndef SRC_ANTIPODE_OBJECT_SHIM_H_
#define SRC_ANTIPODE_OBJECT_SHIM_H_

#include <string>

#include "src/antipode/lineage_api.h"
#include "src/antipode/watermark_shim.h"
#include "src/store/object_store.h"

namespace antipode {

class ObjectShim : public WatermarkShim {
 public:
  explicit ObjectShim(ObjectStore* store) : WatermarkShim(store), objects_(store) {}

  struct ReadResult {
    std::string value;
    Lineage lineage;
  };

  Lineage PutObject(Region region, const std::string& bucket, const std::string& key,
                    std::string_view value, Lineage lineage);
  // NotFound when the object is absent at `region`.
  Result<ReadResult> GetObject(Region region, const std::string& bucket,
                               const std::string& key) const;

  Status PutObjectCtx(Region region, const std::string& bucket, const std::string& key,
                      std::string_view value);
  Result<std::string> GetObjectCtx(Region region, const std::string& bucket,
                                   const std::string& key) const;

 private:
  // Stores `value` framed with `lineage`; returns the write's identifier.
  WriteId FramedPut(Region region, const std::string& bucket, const std::string& key,
                    std::string_view value, const Lineage& lineage);

  ObjectStore* objects_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_OBJECT_SHIM_H_
