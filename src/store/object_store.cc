#include "src/store/object_store.h"

namespace antipode {

std::vector<std::string> ObjectStore::ListObjects(Region region,
                                                  const std::string& bucket) const {
  std::vector<std::string> keys;
  const std::string prefix = bucket + "/";
  for (const EntryHandle& handle : ScanPrefix(region, prefix)) {
    if (!handle->bytes.empty()) {
      keys.push_back(handle->key.substr(prefix.size()));
    }
  }
  return keys;
}

ReplicatedStoreOptions ObjectStore::DefaultOptions(std::string name,
                                                   std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  // Bimodal: 80% of objects replicate within seconds, 20% take ~minutes.
  options.replication.median_millis = 3500.0;
  options.replication.sigma = 0.6;
  options.replication.slow_mode_probability = 0.20;
  options.replication.slow_mode_median_millis = 80000.0;
  options.replication.slow_mode_sigma = 0.8;
  options.replication.payload_millis_per_mib = 80.0;
  return options;
}

}  // namespace antipode
