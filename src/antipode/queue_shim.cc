#include "src/antipode/queue_shim.h"

#include "src/antipode/framing.h"
#include "src/context/request_context.h"
#include "src/obs/trace.h"

namespace antipode {

void DispatchFramedMessage(const std::string& store_name, RegionMask scope,
                           const BrokerMessage& message, const ShimMessageHandler& handler) {
  FramedValue framed = UnframeValue(message.payload());
  ConsumedMessage consumed;
  consumed.payload = std::move(framed.value);
  consumed.lineage = std::move(framed.lineage);
  consumed.lineage.Append(WriteId{store_name, message.key(), message.version(), scope});
  consumed.delivered_at = message.delivered_at;

  // Consumption starts a new execution; it runs under a fresh context whose
  // lineage is the message's (reads-from-lineage: the consumer now depends on
  // everything the producer's request did before publishing).
  RequestContext context;
  ScopedContext scoped(std::move(context));
  LineageApi::Install(consumed.lineage);
  // Join the producer's trace (the span context rode the broker message), so
  // the consumer's barrier and reads land in the same end-to-end trace.
  if (message.trace_id() != 0 && Tracer::Default().enabled()) {
    SetCurrentSpanContext(SpanContext{message.trace_id(), message.parent_span_id()});
  }
  handler(consumed);
}

WriteId BrokerShim::FramedPublish(Region region, const std::string& channel,
                                  std::string_view payload, const Lineage& lineage) {
  auto result = broker_->PublishWithKey(region, channel, FrameValue(lineage, payload));
  return MakeWriteId(std::move(result.key), result.version);
}

Lineage BrokerShim::Publish(Region region, const std::string& channel, std::string_view payload,
                            Lineage lineage) {
  lineage.Append(FramedPublish(region, channel, payload, lineage));
  return lineage;
}

Status BrokerShim::PublishCtx(Region region, const std::string& channel,
                              std::string_view payload) {
  return LineageApi::AppendWrite([&](const Lineage& lineage) {
    return FramedPublish(region, channel, payload, lineage);
  });
}

void BrokerShim::Subscribe(Region region, const std::string& channel, ThreadPool* executor,
                           ShimMessageHandler handler) {
  const std::string name = store_name();
  const RegionMask scope = region_scope();
  broker_->Subscribe(region, channel, executor,
                     [name, scope, handler = std::move(handler)](const BrokerMessage& message) {
                       DispatchFramedMessage(name, scope, message, handler);
                     });
}

}  // namespace antipode
