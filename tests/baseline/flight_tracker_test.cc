#include "src/baseline/flight_tracker.h"

#include <gtest/gtest.h>

#include "src/antipode/kv_shim.h"
#include "src/common/sim.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};

class FlightTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override { TimeScale::Set(0.01); }
  void TearDown() override { TimeScale::Set(1.0); }
};

TEST_F(FlightTrackerTest, TicketAccumulatesSessionWrites) {
  TicketService tickets(Region::kUs);
  tickets.RecordWrite(Region::kUs, "alice", WriteId{"s", "a", 1});
  tickets.RecordWrite(Region::kUs, "alice", WriteId{"s", "b", 1});
  tickets.RecordWrite(Region::kUs, "bob", WriteId{"s", "c", 1});
  EXPECT_EQ(tickets.GetTicket(Region::kUs, "alice").size(), 2u);
  EXPECT_EQ(tickets.GetTicket(Region::kUs, "bob").size(), 1u);
  EXPECT_EQ(tickets.GetTicket(Region::kUs, "carol").size(), 0u);
}

TEST_F(FlightTrackerTest, ClearSessionDropsTicket) {
  TicketService tickets(Region::kUs);
  tickets.RecordWrite(Region::kUs, "alice", WriteId{"s", "a", 1});
  tickets.ClearSession("alice");
  EXPECT_TRUE(tickets.GetTicket(Region::kUs, "alice").empty());
}

TEST_F(FlightTrackerTest, EveryInteractionCountsAnRpc) {
  TicketService tickets(Region::kUs);
  tickets.RecordWrite(Region::kUs, "alice", WriteId{"s", "a", 1});
  tickets.GetTicket(Region::kUs, "alice");
  EXPECT_EQ(tickets.rpc_count(), 2u);
}

// Runs in simulation: the ticket RPC's sleeps advance virtual time, so both
// durations are exact model latency and load on the host cannot skew them.
TEST_F(FlightTrackerTest, RemoteCallerPaysWanRoundTrip) {
  ScopedSimMode sim(7);
  TicketService tickets(Region::kUs);
  const TimePoint t0 = GlobalClock().Now();
  tickets.GetTicket(Region::kUs, "alice");  // ~intra-region
  const auto local_cost = GlobalClock().Now() - t0;
  const TimePoint t1 = GlobalClock().Now();
  tickets.GetTicket(Region::kSg, "alice");  // cross-WAN
  const auto remote_cost = GlobalClock().Now() - t1;
  EXPECT_GT(local_cost.count(), 0);
  EXPECT_GT(remote_cost, local_cost * 5);
}

TEST_F(FlightTrackerTest, BeforeReadEnforcesReadYourWrites) {
  auto options = KvStore::DefaultOptions("ft1", kRegions);
  options.replication.median_millis = 100.0;
  options.replication.sigma = 0.05;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  TicketService tickets(Region::kUs);
  FlightTrackerClient client(&tickets, &registry);

  shim.Write(Region::kUs, "k", "v", Lineage(1));
  client.OnWrite(Region::kUs, "alice", WriteId{"ft1", "k", 1});

  EXPECT_FALSE(store.IsVisible(Region::kEu, "k", 1));
  ASSERT_TRUE(client.BeforeRead(Region::kEu, "alice").ok());
  EXPECT_TRUE(store.IsVisible(Region::kEu, "k", 1));
}

TEST_F(FlightTrackerTest, BeforeReadTimesOutOnStall) {
  KvStore store(KvStore::DefaultOptions("ft2", kRegions));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  TicketService tickets(Region::kUs);
  FlightTrackerClient client(&tickets, &registry);
  store.fault_injector()->PauseStore(store.name(), Region::kEu);
  shim.Write(Region::kUs, "k", "v", Lineage(1));
  client.OnWrite(Region::kUs, "alice", WriteId{"ft2", "k", 1});
  EXPECT_EQ(client.BeforeRead(Region::kEu, "alice", Millis(50)).code(),
            StatusCode::kDeadlineExceeded);
  store.fault_injector()->ResumeStore(store.name(), Region::kEu);
}

TEST_F(FlightTrackerTest, SessionsAreIsolated) {
  auto options = KvStore::DefaultOptions("ft3", kRegions);
  options.replication.median_millis = 1000000.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);
  TicketService tickets(Region::kUs);
  FlightTrackerClient client(&tickets, &registry);
  shim.Write(Region::kUs, "k", "v", Lineage(1));
  client.OnWrite(Region::kUs, "alice", WriteId{"ft3", "k", 1});
  // Bob's session has no ticket entries: his reads are not gated.
  EXPECT_TRUE(client.BeforeRead(Region::kEu, "bob", Millis(100)).ok());
}

}  // namespace
}  // namespace antipode
