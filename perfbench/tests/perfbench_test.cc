// Benchmark-local tests: the request stream is a pure function of the seed,
// the open-loop generator times latency from the scheduled arrival, and the
// span summary computes self time as documented.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stream.h"

namespace perfbench {
namespace {

constexpr uint64_t kDigestRequests = 4096;
constexpr uint32_t kPlans = 48;

TEST(StreamTest, SameSeedSameDigest) {
  for (const char* workload : {"post_notif", "mesh_deep", "timeline_read"}) {
    EXPECT_EQ(StreamDigest(workload, 7, kDigestRequests, kPlans),
              StreamDigest(workload, 7, kDigestRequests, kPlans))
        << workload;
  }
}

TEST(StreamTest, DifferentSeedDifferentDigest) {
  for (const char* workload : {"post_notif", "mesh_deep", "timeline_read"}) {
    EXPECT_NE(StreamDigest(workload, 7, kDigestRequests, kPlans),
              StreamDigest(workload, 8, kDigestRequests, kPlans))
        << workload;
  }
}

TEST(StreamTest, KeysAreFreshPerRequest) {
  EXPECT_NE(PostKey(1, 0), PostKey(1, 1));
  EXPECT_EQ(PostKey(1, 5), PostKey(1, 5));
}

TEST(StreamTest, TimelineReadsTargetAlreadyWrittenPosts) {
  constexpr uint64_t kBase = 16;
  uint64_t reads = 0;
  for (uint64_t i = 0; i < 20000; ++i) {
    const TimelineOp op = TimelineOpAt(3, kBase, i);
    const uint64_t newest = kBase + i / kTimelineOpsPerWrite;
    if (i % kTimelineOpsPerWrite == 0) {
      EXPECT_TRUE(op.write);
      EXPECT_EQ(op.post, newest);
    } else {
      ++reads;
      EXPECT_FALSE(op.write);
      EXPECT_LT(op.post, newest);
    }
  }
  EXPECT_EQ(reads, 20000 - (20000 + kTimelineOpsPerWrite - 1) / kTimelineOpsPerWrite);
}

// Completes every request inline; the first `stall_requests` requests hold
// one shared lock for `stall` first, so every client thread piles up behind
// it while the generator keeps releasing arrivals on schedule.
class StallBed : public Bed {
 public:
  StallBed(std::chrono::milliseconds stall, uint64_t stall_requests)
      : stall_(stall), stall_requests_(stall_requests) {}

  void Issue(Window* window, uint64_t slot, uint64_t index) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (index < stall_requests_) {
        std::this_thread::sleep_for(stall_);
      }
    }
    window->Complete(slot, Outcome::kOk);
  }
  void Drain() override {}

 private:
  std::mutex mu_;
  std::chrono::milliseconds stall_;
  uint64_t stall_requests_;
};

WindowResult RunOpenWindow(Bed* bed) {
  WindowOptions options;
  options.rate = 1000.0;
  options.seconds = 1.0;
  Window window(bed, options);
  return window.Run();
}

TEST(LoadGenTest, LatencyIsTimedFromScheduledArrival) {
  StallBed smooth(std::chrono::milliseconds(0), 0);
  const WindowResult base = RunOpenWindow(&smooth);
  // One 700 ms stall at the start of a 1 s window: every request due during
  // it waits behind it, so well over half the window completes late.
  StallBed stalled(std::chrono::milliseconds(700), 1);
  const WindowResult slow = RunOpenWindow(&stalled);

  ASSERT_EQ(base.issued, 1000u);
  ASSERT_EQ(slow.issued, 1000u);
  EXPECT_EQ(slow.ok, 1000u);
  EXPECT_EQ(slow.unfinished, 0u);
  const double base_p50 = Quantile(base.latency_ms, 0.5);
  const double slow_p50 = Quantile(slow.latency_ms, 0.5);
  EXPECT_LT(base_p50, 5.0);
  EXPECT_GT(slow_p50, 100.0);
  // The generator itself was not stalled: arrivals left on schedule.
  EXPECT_LT(Quantile(slow.late_ms, 0.5), 5.0);
}

TEST(LoadGenTest, ClosedLoopKeepsOutstandingBounded) {
  StallBed bed(std::chrono::milliseconds(0), 0);
  WindowOptions options;
  options.closed_loop = true;
  options.outstanding = 8;
  options.seconds = 0.3;
  Window window(&bed, options);
  const WindowResult result = window.Run();
  EXPECT_GT(result.issued, 0u);
  EXPECT_EQ(result.ok, result.issued);
  EXPECT_GT(result.throughput_req_s, 0.0);
}

// The closed loop issues as many requests as the bed completes: its slot
// store grows past its first chunks instead of capping throughput.
TEST(LoadGenTest, ClosedLoopIsNotCappedBySlotStore) {
  StallBed bed(std::chrono::milliseconds(0), 0);
  WindowOptions options;
  options.closed_loop = true;
  options.outstanding = 64;
  options.seconds = 1.0;
  Window window(&bed, options);
  const WindowResult result = window.Run();
  EXPECT_GT(result.issued, 50'000u);
  EXPECT_EQ(result.ok, result.issued);
  EXPECT_EQ(result.unfinished, 0u);
}

TEST(QuantileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(SpansTest, SelfTimeSubtractsChildren) {
  // request [0, 100] ⊃ writer_side [10, 40] ⊃ shim_write [15, 25].
  std::vector<SpanRecord> spans = {
      {7, SpanName::kRequest, 0, 100'000'000},
      {7, SpanName::kWriterSide, 10'000'000, 40'000'000},
      {7, SpanName::kShimWrite, 15'000'000, 25'000'000},
  };
  const SpanSummary summary = Summarize(spans);
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_DOUBLE_EQ(summary.self_ms[static_cast<size_t>(SpanName::kRequest)], 70.0);
  EXPECT_DOUBLE_EQ(summary.self_ms[static_cast<size_t>(SpanName::kWriterSide)], 20.0);
  EXPECT_DOUBLE_EQ(summary.self_ms[static_cast<size_t>(SpanName::kShimWrite)], 10.0);
  EXPECT_EQ(spans[2].parent_id(), spans[1].id());
  EXPECT_EQ(spans[1].parent_id(), spans[0].id());
}

}  // namespace
}  // namespace perfbench
