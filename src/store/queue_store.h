// RabbitMQ/AMQ-like message broker: named queues mirrored across regions.
// A message published at its origin is delivered to that region's consumer
// immediately and to each remote region's consumer once the mirror has
// replicated it (which is exactly the race Table 1 and Fig. 8 measure).
//
// Delivery is at-least-once in spirit but the simulation is reliable, so each
// consumer sees each message exactly once. Consumers run on their own
// executor, never on the replication timer thread.
//
// `Broker` is the delivery engine QueueStore and PubSubStore share: a
// message is a stored entry keyed `<channel>/<sequence>`, and each apply of
// one at a region submits one executor task per subscriber of ⟨region,
// channel⟩, handing it a handle to the stored entry — no payload, key or
// handler is copied per delivery.

#ifndef SRC_STORE_QUEUE_STORE_H_
#define SRC_STORE_QUEUE_STORE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/store/replicated_store.h"

namespace antipode {

// Ack timeout for broker deliveries: when the fault injector drops a
// delivery (kQueueDropDelivery — the consumer never acked), the broker
// redelivers the message this much model time later. Redelivery timers count
// as in-flight replication, so DrainReplication covers them.
inline constexpr double kBrokerRedeliveryModelMillis = 200.0;

// One delivery of a stored message. Its fields are read through `entry`, a
// handle to the broker's stored entry: a delivery copies no bytes, and the
// message stays readable after the broker is gone.
struct BrokerMessage {
  EntryHandle entry;
  Region delivered_at = Region::kLocal;

  std::string_view payload() const { return entry->bytes; }
  // Storage key of the message entry.
  const std::string& key() const { return entry->key; }
  uint64_t version() const { return entry->version; }
  // Producer-side span context (stamped onto the stored entry by Put), so a
  // consumer execution can join the publishing request's trace.
  uint64_t trace_id() const { return entry->trace_id; }
  uint64_t parent_span_id() const { return entry->parent_span_id; }
};

using MessageHandler = std::function<void(const BrokerMessage&)>;

class Broker : public ReplicatedStore {
 public:
  // Drain while the subscriber table is still alive (the apply hook uses it).
  ~Broker() override { DrainReplication(); }

  // Registers a consumer for ⟨region, channel⟩; messages are dispatched onto
  // `executor`. Register before publishing — earlier messages are not
  // replayed.
  void Subscribe(Region region, const std::string& channel, ThreadPool* executor,
                 MessageHandler handler);

  // Publishes a message; returns its version (its write identifier is
  // ⟨store, key, version⟩ with key = `<channel>/<sequence>`).
  uint64_t Publish(Region origin, const std::string& channel, std::string payload) {
    return PublishWithKey(origin, channel, std::move(payload)).version;
  }

  // Publish, also returning the message's key (shims form write identifiers
  // from it).
  struct PublishResult {
    std::string key;
    uint64_t version;
  };
  PublishResult PublishWithKey(Region origin, const std::string& channel, std::string payload);

 protected:
  // `fan_out`: every subscriber of a channel receives each message (pub/sub);
  // otherwise a channel has one consumer per region and Subscribe replaces it
  // (queues).
  Broker(ReplicatedStoreOptions options, RegionTopology* topology, TimerService* timers,
         bool fan_out);

 private:
  struct Subscriber {
    ThreadPool* executor = nullptr;
    MessageHandler handler;
  };
  // Per region: channel -> subscribers. Immutable once published; Subscribe
  // swaps in a new table, and each delivery task co-owns the one it read.
  using SubscriberTable =
      std::array<std::map<std::string, std::vector<Subscriber>, std::less<>>, kNumRegions>;

  void OnApply(Region region, const EntryHandle& message);

  const bool fan_out_;
  std::atomic<uint64_t> next_sequence_{1};
  std::mutex subscribers_mu_;  // guards the pointer swap, not the table
  std::shared_ptr<const SubscriberTable> subscribers_ = std::make_shared<SubscriberTable>();
};

class QueueStore : public Broker {
 public:
  static ReplicatedStoreOptions DefaultOptions(std::string name, std::vector<Region> regions);

  QueueStore(ReplicatedStoreOptions options,
             RegionTopology* topology = &RegionTopology::Default(),
             TimerService* timers = &TimerService::Shared())
      : Broker(std::move(options), topology, timers, /*fan_out=*/false) {}
};

}  // namespace antipode

#endif  // SRC_STORE_QUEUE_STORE_H_
