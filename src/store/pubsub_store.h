// SNS-like publish-subscribe: topics with fan-out to every subscriber in
// every region. Unlike QueueStore's one-consumer-per-region queues, a topic
// delivers each message to all of its subscribers; delivery to a region
// happens when the message replicates there. Delivery is the shared Broker
// path (src/store/queue_store.h).

#ifndef SRC_STORE_PUBSUB_STORE_H_
#define SRC_STORE_PUBSUB_STORE_H_

#include <string>
#include <vector>

#include "src/store/queue_store.h"

namespace antipode {

class PubSubStore : public Broker {
 public:
  static ReplicatedStoreOptions DefaultOptions(std::string name, std::vector<Region> regions);

  PubSubStore(ReplicatedStoreOptions options,
              RegionTopology* topology = &RegionTopology::Default(),
              TimerService* timers = &TimerService::Shared())
      : Broker(std::move(options), topology, timers, /*fan_out=*/true) {}
};

}  // namespace antipode

#endif  // SRC_STORE_PUBSUB_STORE_H_
