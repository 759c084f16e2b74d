#include "src/store/pubsub_store.h"

namespace antipode {

ReplicatedStoreOptions PubSubStore::DefaultOptions(std::string name,
                                                   std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  // SNS-style: notifications fan out across regions quickly, with a fairly
  // wide spread (push pipelines share fan-out infrastructure).
  options.replication.median_millis = 180.0;
  options.replication.sigma = 0.55;
  options.replication.payload_millis_per_mib = 40.0;
  return options;
}

}  // namespace antipode
