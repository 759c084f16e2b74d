// S3-like object store: buckets of immutable blobs with slow, bimodal
// cross-region replication (usually seconds, occasionally minutes — AWS
// documents up to 15 minutes, which drives the 100% rows of Table 1 and the
// long Antipode consistency window of Fig. 7).

#ifndef SRC_STORE_OBJECT_STORE_H_
#define SRC_STORE_OBJECT_STORE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/store/replicated_store.h"

namespace antipode {

class ObjectStore : public ReplicatedStore {
 public:
  static ReplicatedStoreOptions DefaultOptions(std::string name, std::vector<Region> regions);

  explicit ObjectStore(ReplicatedStoreOptions options,
                       RegionTopology* topology = &RegionTopology::Default(),
                       TimerService* timers = &TimerService::Shared())
      : ReplicatedStore(std::move(options), topology, timers) {}

  uint64_t PutObject(Region region, const std::string& bucket, const std::string& key,
                     std::string bytes) {
    return Put(region, ObjectKey(bucket, key), std::move(bytes));
  }

  std::optional<std::string> GetObject(Region region, const std::string& bucket,
                                       const std::string& key) const {
    auto entry = Get(region, ObjectKey(bucket, key));
    if (!entry || entry->bytes.empty()) {
      return std::nullopt;
    }
    return entry->bytes;
  }

  // Keys of live objects in a bucket at the region's replica.
  std::vector<std::string> ListObjects(Region region, const std::string& bucket) const;

  // Tombstones an object (the deletion replicates like a write).
  uint64_t DeleteObject(Region region, const std::string& bucket, const std::string& key) {
    return Put(region, ObjectKey(bucket, key), std::string());
  }

  bool ObjectExists(Region region, const std::string& bucket, const std::string& key) const {
    return GetObject(region, bucket, key).has_value();
  }

  static std::string ObjectKey(const std::string& bucket, const std::string& key) {
    return bucket + "/" + key;
  }
};

}  // namespace antipode

#endif  // SRC_STORE_OBJECT_STORE_H_
