// Shim for the Redis-like KvStore (paper §6.4: no shim exceeded 50 LoC; this
// one is in the same spirit — framing, id reconstruction, watermark wait).

#ifndef SRC_ANTIPODE_KV_SHIM_H_
#define SRC_ANTIPODE_KV_SHIM_H_

#include <string>

#include "src/antipode/lineage_api.h"
#include "src/antipode/watermark_shim.h"
#include "src/store/kv_store.h"

namespace antipode {

class KvShim : public WatermarkShim {
 public:
  explicit KvShim(KvStore* store) : WatermarkShim(store), kv_(store) {}

  struct ReadResult {
    std::string value;
    Lineage lineage;  // ℒ(writer) including the write's own identifier
  };

  // ℒ' ← write(k, ⟨v, ℒ⟩): stores value+lineage, returns ℒ extended with the
  // new write identifier.
  Lineage Write(Region region, const std::string& key, std::string_view value, Lineage lineage);

  // ⟨v, ℒ⟩ ← read(k). NotFound when the key is absent at `region`.
  Result<ReadResult> Read(Region region, const std::string& key) const;

  // Context-bound variants: Write uses and updates the current request
  // lineage; Read transfers the writer's lineage into the current context
  // (the reads-from-lineage rule of §4.2).
  Status WriteCtx(Region region, const std::string& key, std::string_view value);
  Result<std::string> ReadCtx(Region region, const std::string& key) const;

 private:
  // Stores `value` framed with `lineage`; returns the write's identifier.
  WriteId FramedSet(Region region, const std::string& key, std::string_view value,
                    const Lineage& lineage);

  KvStore* kv_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_KV_SHIM_H_
