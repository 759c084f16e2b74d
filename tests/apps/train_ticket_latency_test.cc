// TrainTicket latency-vs-consistency trade-off (§7.1), isolated from the
// main apps suite.
//
// The test compares two back-to-back in-process load runs. The latency delta
// it asserts (the barrier on the cancellation path waits out the refund's
// processing) is a few model milliseconds, which CPU contention on a loaded
// host could swamp on the wall clock, so both runs execute in simulation:
// every sleep, RPC hop, queue delivery, timer and barrier wait advances
// virtual time, and the medians compared are exact model latencies.
//
// The load keeps requests from overlapping in model time. The simulator runs
// a blocked caller's wait by pumping events on its own stack, so two
// overlapping blocking requests resume last-in first-out and the outer one's
// latency absorbs the inner one's; below one request per service time every
// request runs alone and its latency is exact.

#include <gtest/gtest.h>

#include "src/apps/train_ticket/train_ticket.h"
#include "src/common/clock.h"
#include "src/common/sim.h"

namespace antipode {
namespace {

class TrainTicketLatencyTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.1); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(TrainTicketLatencyTest, TrainTicketAntipodeEliminatesViolationsAtLatencyCost) {
  TrainTicketConfig config;
  config.load_rps = 10;
  config.duration_model_seconds = 3.0;
  config.antipode = false;
  TrainTicketResult baseline;
  {
    ScopedSimMode sim(config.seed);
    baseline = RunTrainTicket(config);
  }
  config.antipode = true;
  TrainTicketResult antipode;
  {
    ScopedSimMode sim(config.seed);
    antipode = RunTrainTicket(config);
  }

  EXPECT_GT(baseline.requests, 0u);
  EXPECT_EQ(antipode.violations, 0u);
  // Barrier on the critical path: median cancellation latency strictly
  // higher.
  EXPECT_GT(antipode.cancel_latency_model_ms.Percentile(0.5),
            baseline.cancel_latency_model_ms.Percentile(0.5));
  // And the consistency window collapses.
  EXPECT_LT(antipode.consistency_window_model_ms.Percentile(0.5),
            baseline.consistency_window_model_ms.Percentile(0.5));
}

}  // namespace
}  // namespace antipode
