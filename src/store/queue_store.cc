#include "src/store/queue_store.h"

#include "src/obs/metrics.h"

namespace antipode {
namespace {

// The channel name is the key prefix before the final '/'.
std::string_view ChannelOfKey(std::string_view key) {
  const size_t slash = key.rfind('/');
  return slash == std::string_view::npos ? key : key.substr(0, slash);
}

}  // namespace

ReplicatedStoreOptions QueueStore::DefaultOptions(std::string name,
                                                  std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  options.replication.median_millis = 700.0;
  options.replication.sigma = 0.15;
  options.replication.payload_millis_per_mib = 40.0;
  return options;
}

Broker::Broker(ReplicatedStoreOptions options, RegionTopology* topology, TimerService* timers,
               bool fan_out)
    : ReplicatedStore(std::move(options), topology, timers), fan_out_(fan_out) {
  SetApplyHook([this](Region region, const EntryHandle& message) { OnApply(region, message); });
}

void Broker::Subscribe(Region region, const std::string& channel, ThreadPool* executor,
                       MessageHandler handler) {
  std::lock_guard<std::mutex> lock(subscribers_mu_);
  auto table = std::make_shared<SubscriberTable>(*subscribers_);
  std::vector<Subscriber>& subscribers = (*table)[static_cast<size_t>(RegionIndex(region))][channel];
  if (!fan_out_) {
    subscribers.clear();
  }
  subscribers.push_back(Subscriber{executor, std::move(handler)});
  subscribers_ = std::move(table);
}

Broker::PublishResult Broker::PublishWithKey(Region origin, const std::string& channel,
                                             std::string payload) {
  const uint64_t sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  std::string key;
  key.reserve(channel.size() + 21);  // '/' + up to 20 decimal digits
  key.append(channel).push_back('/');
  key.append(std::to_string(sequence));
  const uint64_t version = Put(origin, key, std::move(payload));
  return PublishResult{std::move(key), version};
}

void Broker::OnApply(Region region, const EntryHandle& message) {
  // Lost delivery (consumer crash before ack): schedule a redelivery instead
  // of losing the lineage-carrying message. The redelivery re-enters this
  // gate, so repeated drops redeliver again until the fault window closes.
  if (fault_injector() != nullptr && fault_injector()->DropDelivery(name(), region)) {
    MetricsRegistry::Default().GetCounter("queue.redeliveries", {{"store", name()}})->Increment();
    ScheduleStoreWork(TimeScale::FromModelMillis(kBrokerRedeliveryModelMillis),
                      std::hash<std::string>{}(message->key) ^ 0x5ca1ab1eULL,
                      [this, region, message] { OnApply(region, message); });
    return;
  }
  std::shared_ptr<const SubscriberTable> table;
  {
    std::lock_guard<std::mutex> lock(subscribers_mu_);
    table = subscribers_;
  }
  const auto& channels = (*table)[static_cast<size_t>(RegionIndex(region))];
  auto it = channels.find(ChannelOfKey(message->key));
  if (it == channels.end()) {
    return;
  }
  for (const Subscriber& subscriber : it->second) {
    // The task co-owns the table its subscriber lives in (an aliasing
    // pointer, no allocation), so a concurrent Subscribe or the broker's
    // teardown cannot pull the handler out from under it.
    subscriber.executor->Submit(
        [subscriber = std::shared_ptr<const Subscriber>(table, &subscriber), message, region] {
          subscriber->handler(BrokerMessage{message, region});
        });
  }
}

}  // namespace antipode
