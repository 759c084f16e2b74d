// Queue (RabbitMQ/AMQ-like) and pub/sub (SNS-like) substrates.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "src/common/thread_pool.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/store/pubsub_store.h"
#include "src/store/queue_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

template <typename Predicate>
bool WaitUntil(Predicate predicate, std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class BrokersTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(BrokersTest, QueueDeliversLocallyImmediately) {
  QueueStore queue(QueueStore::DefaultOptions("q1", kRegions));
  ThreadPool pool(1, "consumer");
  std::atomic<int> received{0};
  std::string payload;
  std::mutex mu;
  queue.Subscribe(Region::kUs, "jobs", &pool, [&](const BrokerMessage& message) {
    {
      std::lock_guard<std::mutex> lock(mu);
      payload = message.payload();
    }
    received.fetch_add(1);
  });
  queue.Publish(Region::kUs, "jobs", "do-it");
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(payload, "do-it");
  }
  pool.Shutdown();
}

TEST_F(BrokersTest, QueueDeliversCrossRegionAfterReplication) {
  QueueStore queue(QueueStore::DefaultOptions("q2", kRegions));
  ThreadPool pool(1, "consumer");
  std::atomic<int> received{0};
  std::atomic<int> region_ok{0};
  queue.Subscribe(Region::kEu, "jobs", &pool, [&](const BrokerMessage& message) {
    if (message.delivered_at == Region::kEu) {
      region_ok.fetch_add(1);
    }
    received.fetch_add(1);
  });
  queue.Publish(Region::kUs, "jobs", "x");
  EXPECT_EQ(received.load(), 0);  // not yet replicated (700 model ms => 7ms)
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 1; }));
  EXPECT_EQ(region_ok.load(), 1);
  pool.Shutdown();
}

TEST_F(BrokersTest, QueueSeparatesChannels) {
  QueueStore queue(QueueStore::DefaultOptions("q3", kRegions));
  ThreadPool pool(1, "consumer");
  std::atomic<int> a_count{0};
  std::atomic<int> b_count{0};
  queue.Subscribe(Region::kUs, "a", &pool, [&](const BrokerMessage&) { a_count.fetch_add(1); });
  queue.Subscribe(Region::kUs, "b", &pool, [&](const BrokerMessage&) { b_count.fetch_add(1); });
  queue.Publish(Region::kUs, "a", "1");
  queue.Publish(Region::kUs, "a", "2");
  queue.Publish(Region::kUs, "b", "3");
  EXPECT_TRUE(WaitUntil([&] { return a_count.load() == 2 && b_count.load() == 1; }));
  pool.Shutdown();
}

TEST_F(BrokersTest, QueuePreservesPerChannelOrderLocally) {
  QueueStore queue(QueueStore::DefaultOptions("q4", kRegions));
  ThreadPool pool(1, "consumer");
  std::mutex mu;
  std::vector<std::string> order;
  queue.Subscribe(Region::kUs, "seq", &pool, [&](const BrokerMessage& message) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(std::string(message.payload()));
  });
  for (int i = 0; i < 10; ++i) {
    queue.Publish(Region::kUs, "seq", std::to_string(i));
  }
  EXPECT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return order.size() == 10;
  }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], std::to_string(i));
  }
  pool.Shutdown();
}

TEST_F(BrokersTest, QueuePublishWithKeyReturnsResolvableIdentifier) {
  QueueStore queue(QueueStore::DefaultOptions("q5", kRegions));
  auto result = queue.PublishWithKey(Region::kUs, "jobs", "payload");
  EXPECT_FALSE(result.key.empty());
  EXPECT_EQ(result.version, 1u);
  EXPECT_TRUE(queue.IsVisible(Region::kUs, result.key, result.version));
}

TEST_F(BrokersTest, QueueMessageWithoutSubscriberIsDurable) {
  QueueStore queue(QueueStore::DefaultOptions("q6", kRegions));
  auto result = queue.PublishWithKey(Region::kUs, "unwatched", "data");
  auto entry = queue.Get(Region::kUs, result.key);
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_EQ(entry->bytes, "data");
}

TEST_F(BrokersTest, PubSubFansOutToAllSubscribers) {
  PubSubStore pubsub(PubSubStore::DefaultOptions("ps1", kRegions));
  ThreadPool pool(2, "subs");
  std::atomic<int> us_count{0};
  std::atomic<int> eu_count{0};
  pubsub.Subscribe(Region::kUs, "topic", &pool,
                   [&](const BrokerMessage&) { us_count.fetch_add(1); });
  pubsub.Subscribe(Region::kUs, "topic", &pool,
                   [&](const BrokerMessage&) { us_count.fetch_add(1); });
  pubsub.Subscribe(Region::kEu, "topic", &pool,
                   [&](const BrokerMessage&) { eu_count.fetch_add(1); });
  pubsub.Publish(Region::kUs, "topic", "m");
  EXPECT_TRUE(WaitUntil([&] { return us_count.load() == 2 && eu_count.load() == 1; }));
  pool.Shutdown();
}

TEST_F(BrokersTest, PubSubIgnoresOtherTopics) {
  PubSubStore pubsub(PubSubStore::DefaultOptions("ps2", kRegions));
  ThreadPool pool(1, "subs");
  std::atomic<int> count{0};
  pubsub.Subscribe(Region::kUs, "t1", &pool, [&](const BrokerMessage&) { count.fetch_add(1); });
  pubsub.Publish(Region::kUs, "t2", "m");
  pubsub.Publish(Region::kUs, "t1", "m");
  EXPECT_TRUE(WaitUntil([&] { return count.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(count.load(), 1);
  pool.Shutdown();
}

TEST_F(BrokersTest, PubSubCrossRegionDeliveryLags) {
  PubSubStore pubsub(PubSubStore::DefaultOptions("ps3", kRegions));
  ThreadPool pool(1, "subs");
  std::atomic<int64_t> delivery_us{0};
  std::atomic<bool> delivered{false};
  const TimePoint publish_time = SystemClock::Instance().Now();
  pubsub.Subscribe(Region::kEu, "t", &pool, [&](const BrokerMessage&) {
    delivery_us = ToMicros(std::chrono::duration_cast<Duration>(
        SystemClock::Instance().Now() - publish_time));
    delivered = true;
  });
  pubsub.Publish(Region::kUs, "t", "m");
  EXPECT_TRUE(WaitUntil([&] { return delivered.load(); }));
  // ~180 model ms + WAN at scale 0.01 => >=1ms wall.
  EXPECT_GE(delivery_us.load(), 1000);
  pool.Shutdown();
}

TEST_F(BrokersTest, ManyMessagesAllDelivered) {
  QueueStore queue(QueueStore::DefaultOptions("q7", kRegions));
  ThreadPool pool(4, "consumer");
  std::atomic<int> received{0};
  queue.Subscribe(Region::kEu, "burst", &pool,
                  [&](const BrokerMessage&) { received.fetch_add(1); });
  for (int i = 0; i < 200; ++i) {
    queue.Publish(Region::kUs, "burst", std::to_string(i));
  }
  EXPECT_TRUE(WaitUntil([&] { return received.load() == 200; }, std::chrono::seconds(10)));
  pool.Shutdown();
}

// Two subscribers in one region each see every message exactly once, and
// each delivery reads the published payload, key and version through its
// handle.
TEST_F(BrokersTest, PubSubTwoSubscribersEachGetEachMessageOnce) {
  PubSubStore pubsub(PubSubStore::DefaultOptions("ps4", kRegions));
  ThreadPool pool(2, "subs");
  struct Seen {
    std::mutex mu;
    std::map<std::string, std::pair<std::string, uint64_t>> messages;  // key -> payload, version
    int duplicates = 0;
  };
  Seen seen[2];
  for (Seen& s : seen) {
    pubsub.Subscribe(Region::kUs, "topic", &pool, [&s](const BrokerMessage& message) {
      std::lock_guard<std::mutex> lock(s.mu);
      const bool fresh =
          s.messages.emplace(message.key(), std::make_pair(std::string(message.payload()),
                                                            message.version()))
              .second;
      s.duplicates += fresh ? 0 : 1;
    });
  }
  constexpr int kMessages = 50;
  std::map<std::string, std::pair<std::string, uint64_t>> published;
  for (int i = 0; i < kMessages; ++i) {
    // Long enough that neither key nor payload fits a short-string buffer.
    std::string payload = "notification-payload-" + std::to_string(i);
    auto result = pubsub.PublishWithKey(Region::kUs, "topic", payload);
    published[result.key] = {payload, result.version};
  }
  EXPECT_TRUE(WaitUntil([&] {
    for (Seen& s : seen) {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.messages.size() < kMessages) return false;
    }
    return true;
  }));
  pubsub.DrainReplication();
  pool.Shutdown();
  for (Seen& s : seen) {
    std::lock_guard<std::mutex> lock(s.mu);
    EXPECT_EQ(s.duplicates, 0);
    EXPECT_EQ(s.messages, published);
  }
}

// A delivery dropped by the fault injector is redelivered after the ack
// timeout with the very bytes that were published, exactly once.
TEST_F(BrokersTest, RedeliveryAfterDropDeliversIdenticalBytes) {
  FaultInjector injector;
  ReplicatedStoreOptions options = QueueStore::DefaultOptions("q8", kRegions);
  options.fault_injector = &injector;
  QueueStore queue(std::move(options));
  FaultRule drop;
  drop.kind = FaultKind::kQueueDropDelivery;
  drop.store = "q8";
  drop.to = Region::kUs;
  injector.Arm(FaultPlan{"drop-us", 1, {drop}});

  ThreadPool pool(1, "consumer");
  std::mutex mu;
  std::vector<std::tuple<std::string, std::string, uint64_t>> delivered;
  queue.Subscribe(Region::kUs, "jobs", &pool, [&](const BrokerMessage& message) {
    std::lock_guard<std::mutex> lock(mu);
    delivered.emplace_back(std::string(message.payload()), message.key(), message.version());
  });
  const std::string payload("binary\0payload-with-a-nul-and-enough-bytes-to-spill", 51);
  auto result = queue.PublishWithKey(Region::kUs, "jobs", payload);
  Counter* redeliveries =
      MetricsRegistry::Default().GetCounter("queue.redeliveries", {{"store", "q8"}});
  EXPECT_TRUE(WaitUntil([&] { return redeliveries->value() >= 1; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(delivered.empty());  // the first delivery was dropped
  }
  injector.Disarm();
  EXPECT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return !delivered.empty();
  }));
  queue.DrainReplication();
  pool.Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(std::get<0>(delivered[0]), payload);
  EXPECT_EQ(std::get<1>(delivered[0]), result.key);
  EXPECT_EQ(std::get<2>(delivered[0]), result.version);
}

// A delivered message and a Get result are handles to the stored entry;
// both stay readable after the store that produced them is destroyed.
TEST_F(BrokersTest, MessageAndGetHandlesOutliveTheirStore) {
  std::optional<BrokerMessage> kept;
  EntryHandle read;
  const std::string payload(64, 'p');
  {
    ThreadPool pool(1, "consumer");
    std::mutex mu;
    PubSubStore pubsub(PubSubStore::DefaultOptions("ps5", kRegions));
    pubsub.Subscribe(Region::kUs, "t", &pool, [&](const BrokerMessage& message) {
      std::lock_guard<std::mutex> lock(mu);
      kept = message;
    });
    auto result = pubsub.PublishWithKey(Region::kUs, "t", payload);
    read = pubsub.Get(Region::kUs, result.key);
    pool.Shutdown();  // runs the delivery
  }
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->payload(), payload);
  EXPECT_EQ(kept->key(), "t/1");
  EXPECT_EQ(kept->version(), 1u);
  ASSERT_TRUE(read);
  EXPECT_EQ(read->bytes, payload);
  EXPECT_EQ(read->key, "t/1");
}

}  // namespace
}  // namespace antipode
