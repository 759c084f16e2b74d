// Partition-heal convergence property, run under the deterministic
// simulation scheduler (chaos + sim labels).
//
// Episode shape, per seed: partition a random subset of a 3-region store's
// replication flows mid-workload, keep writing through the partition, heal,
// and check the recovery contract:
//   (1) every pending visibility barrier completes Ok (no hangs),
//   (2) no write is lost or double-applied through buffer + replay,
//   (3) every replica converges to the final version of every key,
//   (4) an XCY history over the run records zero violations.
//
// Every episode runs inside `ScopedSimMode`: all delays are virtual, the
// schedule is a pure function of the seed, and a failing seed replays
// exactly. That removes the threaded suite's workarounds wholesale — no
// RUN_SERIAL (nothing here is load-sensitive), no fault-window headroom
// (model time stops while the test thinks), and no
// `network_delay_multiplier = 0` hack in the replay-order episode (virtual
// write spacing is free, so it can simply exceed the full WAN jitter) — and
// buys 10× the seeds (100 → 1000) at a fraction of the wall time.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/antipode/history_checker.h"
#include "src/common/random.h"
#include "src/common/sim.h"
#include "src/common/timer_service.h"
#include "src/fault/fault_injector.h"
#include "src/net/topology.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu, Region::kSg};

class SimPartitionHealTest : public ::testing::Test {
 protected:
  // Model ms == virtual ms: simulated delays cost nothing, so there is no
  // reason to compress them.
  void SetUp() override { TimeScale::Set(1.0); }
  void TearDown() override { TimeScale::Set(1.0); }
};

using ApplyLog = std::map<std::pair<int, std::string>, std::vector<uint64_t>>;

struct Recorder {
  std::mutex mu;
  ApplyLog applied;
};

void Attach(KvStore& store, Recorder& recorder) {
  store.SetApplyHook([&recorder](Region region, const EntryHandle& entry) {
    std::lock_guard<std::mutex> lock(recorder.mu);
    recorder.applied[{RegionIndex(region), entry->key}].push_back(entry->version);
  });
}

TimerServiceOptions DeterministicTimers() {
  TimerServiceOptions options;
  options.deterministic = true;
  return options;
}

// One seeded window-heal episode; reports via gtest assertions. Returns the
// episode's event-trace hash so the caller can assert exact replay.
uint64_t RunWindowEpisode(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ScopedSimMode sim(seed);
  Rng rng(seed);

  TimerService timers(DeterministicTimers());
  RegionTopology topology(/*jitter_sigma=*/0.1, /*seed=*/seed);
  FaultInjector injector;
  const std::string store_name = "ph-" + std::to_string(seed);
  auto options = KvStore::DefaultOptions(store_name, kRegions);
  options.replication.median_millis = 5.0;
  options.replication.sigma = 0.05;
  options.replication.seed = seed;
  options.fault_injector = &injector;
  KvStore store(std::move(options), &topology, &timers);
  Recorder recorder;
  Attach(store, recorder);

  // Random link subset: each replication flow out of the writer region is
  // independently partitioned (at least one always is), under a randomly
  // chosen stall kind, starting mid-workload.
  const uint64_t num_keys = 2 + rng.NextBelow(3);        // 2..4
  const uint64_t writes_per_key = 3 + rng.NextBelow(4);  // 3..6
  constexpr double kWriteSpacingModelMs = 2.0;
  const double workload_ms =
      static_cast<double>(num_keys * writes_per_key) * kWriteSpacingModelMs;

  FaultPlan plan{"partition-heal", seed, {}};
  bool any = false;
  for (Region region : {Region::kEu, Region::kSg}) {
    if (any && !rng.NextBernoulli(0.5)) {
      continue;
    }
    any = true;
    FaultRule rule;
    const uint64_t kind = rng.NextBelow(3);
    rule.kind = kind == 0   ? FaultKind::kStoreStall
                : kind == 1 ? FaultKind::kRegionOutage
                            : FaultKind::kLinkPartition;
    rule.store = store_name;
    rule.to = region;
    rule.start_model_ms = rng.NextUniform(0.0, 20.0);
    // In virtual time the workload spans exactly its nominal spacing — the
    // threaded suite's 10× + 150 ms headroom for wall-clock overhead is gone.
    rule.end_model_ms = workload_ms + rng.NextUniform(0.0, 40.0);
    plan.rules.push_back(rule);
  }
  injector.Arm(std::move(plan));

  // Sequential writer in kUs: per-key versions 1..writes_per_key, each write
  // carrying its predecessors' lineage into the history.
  XcyHistoryChecker checker;
  constexpr uint64_t kWriterProcess = 1;
  Lineage lineage(1);
  for (uint64_t v = 1; v <= writes_per_key; ++v) {
    for (uint64_t k = 0; k < num_keys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const uint64_t version = store.Set(Region::kUs, key, "v" + std::to_string(v));
      EXPECT_EQ(version, v);
      checker.ObserveWrite(kWriterProcess, WriteId{store_name, key, version}, lineage);
      lineage.Append(WriteId{store_name, key, version});
      GlobalClock().SleepFor(TimeScale::FromModelMillis(kWriteSpacingModelMs));
    }
  }

  // Pending barriers: every replica must reach the final version of every
  // key. The partitioned flows only complete after the scheduled heal — a
  // hang here is a lost or stuck backlog (and surfaces as DeadlineExceeded,
  // since RunUntil treats a quiescent heap as the deadline passing).
  for (Region region : kRegions) {
    for (uint64_t k = 0; k < num_keys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const Status status =
          store.WaitVisible(region, key, writes_per_key, std::chrono::seconds(30));
      EXPECT_TRUE(status.ok()) << "region=" << RegionName(region) << " key=" << key << ": "
                               << status.message();
    }
  }
  store.DrainReplication();
  injector.Disarm();

  // Convergence + XCY: each replica reads back the final version of every
  // key; a stale read is both an EXPECT failure and a checker violation.
  uint64_t reader_process = 10;
  for (Region region : kRegions) {
    checker.ObserveMessage(kWriterProcess, reader_process);
    for (uint64_t k = 0; k < num_keys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const auto entry = store.Get(region, key);
      EXPECT_TRUE(static_cast<bool>(entry));
      if (!static_cast<bool>(entry)) {
        continue;
      }
      EXPECT_EQ(entry->version, writes_per_key);
      checker.ObserveRead(reader_process, store_name, key, entry->version, Lineage());
    }
    ++reader_process;
  }
  EXPECT_TRUE(checker.Consistent());
  EXPECT_EQ(checker.violations().size(), 0u);

  // Exactly-once through buffer + replay: each replica saw each version of
  // each key exactly once (no losses, no duplicate applies).
  {
    std::lock_guard<std::mutex> lock(recorder.mu);
    EXPECT_EQ(recorder.applied.size(), kRegions.size() * num_keys);
    for (auto& [region_key, versions] : recorder.applied) {
      std::vector<uint64_t> sorted = versions;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted.size(), writes_per_key)
          << "region " << region_key.first << " key " << region_key.second;
      if (sorted.size() != writes_per_key) {
        continue;
      }
      for (uint64_t v = 1; v <= writes_per_key; ++v) {
        EXPECT_EQ(sorted[v - 1], v)
            << "region " << region_key.first << " key " << region_key.second;
      }
    }
  }

  sim.scheduler().RunUntilQuiescent();
  timers.Shutdown();
  return sim.scheduler().TraceHash();
}

// One seeded pause-drain-resume episode: with the heal point synchronous,
// the backlog must replay strictly in per-key version order.
uint64_t RunReplayOrderEpisode(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ScopedSimMode sim(seed);
  Rng rng(seed);

  TimerService timers(DeterministicTimers());
  RegionTopology topology(/*jitter_sigma=*/0.1, /*seed=*/seed);
  FaultInjector injector;
  const std::string store_name = "ro-" + std::to_string(seed);
  auto options = KvStore::DefaultOptions(store_name, kRegions);
  options.replication.median_millis = 5.0;
  options.replication.sigma = 0.05;
  options.replication.seed = seed;
  options.fault_injector = &injector;
  KvStore store(std::move(options), &topology, &timers);
  Recorder recorder;
  Attach(store, recorder);

  // Pause a random non-empty subset of replicas through the injector's
  // manual-stall surface (the store's resume listener replays the backlog).
  std::vector<Region> paused;
  for (Region region : {Region::kEu, Region::kSg}) {
    if (paused.empty() || rng.NextBernoulli(0.5)) {
      injector.PauseStore(store_name, region);
      EXPECT_TRUE(injector.IsStorePaused(store_name, region));
      paused.push_back(region);
    }
  }

  // Strict order needs per-key arrival order == version order. Virtual write
  // spacing is free, so instead of zeroing the WAN term (the threaded
  // suite's workaround) the spacing simply dwarfs the full jittered WAN +
  // shipping delay spread — arrivals cannot swap, jitter intact.
  const uint64_t num_keys = 2 + rng.NextBelow(3);
  const uint64_t writes_per_key = 3 + rng.NextBelow(4);
  constexpr double kWriteSpacingModelMs = 500.0;
  for (uint64_t v = 1; v <= writes_per_key; ++v) {
    for (uint64_t k = 0; k < num_keys; ++k) {
      store.Set(Region::kUs, "k" + std::to_string(k), "v" + std::to_string(v));
      GlobalClock().SleepFor(TimeScale::FromModelMillis(kWriteSpacingModelMs));
    }
  }
  // Every shipment has now either applied or buffered (buffered entries hold
  // no drain tokens, so this returns while the pause lasts).
  store.DrainReplication();
  for (Region region : paused) {
    EXPECT_FALSE(store.IsVisible(region, "k0", 1));
  }

  // Resume replays the backlog inline, in buffered (= per-key version)
  // order.
  for (Region region : paused) {
    injector.ResumeStore(store_name, region);
    EXPECT_FALSE(injector.IsStorePaused(store_name, region));
  }

  {
    std::lock_guard<std::mutex> lock(recorder.mu);
    EXPECT_EQ(recorder.applied.size(), kRegions.size() * num_keys);
    for (auto& [region_key, versions] : recorder.applied) {
      EXPECT_EQ(versions.size(), writes_per_key)
          << "region " << region_key.first << " key " << region_key.second;
      if (versions.size() != writes_per_key) {
        continue;
      }
      for (size_t i = 0; i < versions.size(); ++i) {
        EXPECT_EQ(versions[i], i + 1)
            << "out-of-order replay at region " << region_key.first << " key "
            << region_key.second;
      }
    }
  }

  sim.scheduler().RunUntilQuiescent();
  timers.Shutdown();
  return sim.scheduler().TraceHash();
}

TEST_F(SimPartitionHealTest, BacklogsReplayAndConvergeAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    RunWindowEpisode(seed);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      ADD_FAILURE() << "replay: RunWindowEpisode(" << seed << ")";
      return;
    }
  }
}

TEST_F(SimPartitionHealTest, ManualPauseReplaysBacklogInOrderAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    RunReplayOrderEpisode(seed);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      ADD_FAILURE() << "replay: RunReplayOrderEpisode(" << seed << ")";
      return;
    }
  }
}

// Replay-from-seed: a full store episode (shipments, fault windows, heal
// timers, visibility waits) is a pure function of its seed — three runs hash
// identically, a neighbouring seed does not.
TEST_F(SimPartitionHealTest, EpisodeTraceHashesAreReproducible) {
  const uint64_t h1 = RunWindowEpisode(77);
  const uint64_t h2 = RunWindowEpisode(77);
  const uint64_t h3 = RunWindowEpisode(77);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_NE(h1, RunWindowEpisode(78));

  const uint64_t r1 = RunReplayOrderEpisode(77);
  const uint64_t r2 = RunReplayOrderEpisode(77);
  EXPECT_EQ(r1, r2);
}

}  // namespace
}  // namespace antipode
