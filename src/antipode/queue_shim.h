// Shims for the broker substrates (RabbitMQ/AMQ-like queues and SNS-like
// pub/sub). Lineages ride inside the message frame; consuming a message
// re-installs the producer's lineage (plus the message's own write id) into
// the consumer's request context, which is how causality crosses the
// asynchronous hop in DeathStarBench and TrainTicket (§7.1).

#ifndef SRC_ANTIPODE_QUEUE_SHIM_H_
#define SRC_ANTIPODE_QUEUE_SHIM_H_

#include <functional>
#include <string>

#include "src/antipode/lineage.h"
#include "src/antipode/lineage_api.h"
#include "src/antipode/watermark_shim.h"
#include "src/store/pubsub_store.h"
#include "src/store/queue_store.h"

namespace antipode {

// Payload + the lineage reconstructed from the message frame (including the
// message's own write identifier).
struct ConsumedMessage {
  std::string payload;
  Lineage lineage;
  Region delivered_at = Region::kLocal;
};

using ShimMessageHandler = std::function<void(const ConsumedMessage&)>;

// The shim for both broker substrates: queues (QueueStore) and pub/sub
// topics (PubSubStore) share one store-side delivery path (Broker), so one
// shim fronts either.
class BrokerShim : public WatermarkShim {
 public:
  explicit BrokerShim(Broker* broker) : WatermarkShim(broker), broker_(broker) {}

  // ℒ' ← publish(channel, ⟨payload, ℒ⟩).
  Lineage Publish(Region region, const std::string& channel, std::string_view payload,
                  Lineage lineage);
  Status PublishCtx(Region region, const std::string& channel, std::string_view payload);

  // Subscribes a consumer whose handler runs under a fresh RequestContext
  // carrying the message's lineage (so barrier/reads inside the handler see
  // the producer's dependencies).
  void Subscribe(Region region, const std::string& channel, ThreadPool* executor,
                 ShimMessageHandler handler);

 private:
  // Publishes `payload` framed with `lineage`; returns the message's write
  // identifier.
  WriteId FramedPublish(Region region, const std::string& channel, std::string_view payload,
                        const Lineage& lineage);

  Broker* broker_;
};

using QueueShim = BrokerShim;
using PubSubShim = BrokerShim;

// Decodes a broker message into payload + lineage and
// invokes `handler` under a context carrying that lineage. `scope` is the
// broker store's locality scope, stamped onto the message's own write id
// (Shim::region_scope of the subscribing shim).
void DispatchFramedMessage(const std::string& store_name, RegionMask scope,
                           const BrokerMessage& message, const ShimMessageHandler& handler);

}  // namespace antipode

#endif  // SRC_ANTIPODE_QUEUE_SHIM_H_
