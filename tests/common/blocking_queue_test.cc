#include "src/common/blocking_queue.h"

#include <gtest/gtest.h>

#include <thread>

namespace antipode {
namespace {

TEST(BlockingQueueTest, PushPopFifo) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BlockingQueueTest, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(BlockingQueueTest, SizeTracksContents) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.Size(), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Size(), 2u);
  q.Pop();
  EXPECT_EQ(q.Size(), 1u);
}

TEST(BlockingQueueTest, BoundedTryPushFailsWhenFull) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, CloseWakesBlockedPop) {
  BlockingQueue<int> q;
  std::thread popper([&q] { EXPECT_EQ(q.Pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  popper.join();
}

TEST(BlockingQueueTest, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BlockingQueueTest, PushAfterCloseFails) {
  BlockingQueue<int> q;
  q.Close();
  EXPECT_FALSE(q.Push(1));
  EXPECT_FALSE(q.TryPush(1));
  EXPECT_TRUE(q.Closed());
}

TEST(BlockingQueueTest, PopWithTimeoutTimesOut) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopWithTimeout(Millis(30)), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, Millis(25));
}

TEST(BlockingQueueTest, PopWithTimeoutReturnsItem) {
  BlockingQueue<int> q;
  q.Push(9);
  EXPECT_EQ(q.PopWithTimeout(Millis(30)), 9);
}

// Items stay FIFO while the ring wraps around and while it grows with its
// live region split across the wrap point.
TEST(BlockingQueueTest, FifoAcrossWrapAndGrowth) {
  BlockingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10 + round; ++i) q.Push(next_in++);
    for (int i = 0; i < 9 + round / 2; ++i) EXPECT_EQ(q.TryPop(), next_out++);
  }
  EXPECT_EQ(q.Size(), static_cast<size_t>(next_in - next_out));
  while (next_out < next_in) EXPECT_EQ(q.TryPop(), next_out++);
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(BlockingQueueTest, BlockedPushUnblocksOnPop) {
  BlockingQueue<int> q(1);
  q.Push(1);
  std::thread pusher([&q] { EXPECT_TRUE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.Pop(), 1);
  pusher.join();
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q(64);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(i);
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&q, &consumed] {
      while (q.Pop().has_value()) {
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<size_t>(p)].join();
  }
  q.Close();
  for (size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
}

TEST(BlockingQueueTest, MoveOnlyItems) {
  BlockingQueue<std::unique_ptr<int>> q;
  q.Push(std::make_unique<int>(5));
  auto item = q.Pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 5);
}

}  // namespace
}  // namespace antipode
