// Seed-sweep fault exploration under deterministic simulation (ISSUE 10).
//
// Runs N seeded episodes of a cross-service workload — writer in US updates a
// profile + posts store (lineage via KvShim), publishes a notification
// through a replicated queue, and pings an RPC service with idempotent
// retries; readers in EU and SG consume notifications, run a visibility
// Barrier on the carried lineage, then read — each under a *randomized*
// FaultPlan (partitions, outages, WAN delay spikes, RPC response drops,
// broker redeliveries, transient apply errors) with every delay virtual and
// every decision seeded. The configuration grid cycles seed % 4 over both
// enforcement backends (lineage, stable-frontier) × scoped/unscoped
// locality, so every ALWAYS property is exercised under both strategies.
//
// Per episode the property registry opens a fresh run window; the episode
// verdict is RunViolationFree() ∧ a violation-free XCY history. A sampled
// subset of seeds is re-run and the event-trace hashes compared — the
// replay-determinism guarantee the whole approach rests on. On any failure
// the exact seed and a replay command are printed:
//
//     ./sim_sweep --replay-seed=<seed>
//
// re-runs that one episode (twice, verifying the hash) with the property
// summary on stderr.
//
// Flags: --seeds=<n> (default 1000), --quick (200 seeds), --replay-seed=<s>,
//        --json-out=<path> (default BENCH_sim_sweep.json), --deep-checks=0|1
//        (default 1: memoized barrier fast paths re-probe every dependency).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/antipode/barrier.h"
#include "src/antipode/enforcement.h"
#include "src/antipode/history_checker.h"
#include "src/antipode/kv_shim.h"
#include "src/antipode/shim.h"
#include "src/common/property.h"
#include "src/common/random.h"
#include "src/common/sim.h"
#include "src/common/thread_pool.h"
#include "src/common/timer_service.h"
#include "src/fault/fault_injector.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/rpc/rpc.h"
#include "src/store/kv_store.h"
#include "src/store/queue_store.h"

using namespace antipode;

namespace {

struct EpisodeConfig {
  EnforcementBackendKind backend = EnforcementBackendKind::kLineage;
  bool use_scope = true;
  const char* backend_name = "lineage";
  const char* label = "lineage/scoped";
};

// Version of the (store, key) dependency inside a lineage. deps() is sorted
// by ⟨store, key, version⟩, so the matching run's last element is the newest.
uint64_t VersionOf(const Lineage& lineage, const std::string& store,
                   const std::string& key) {
  uint64_t version = 0;
  for (const auto& dep : lineage.deps()) {
    if (dep.store == store && dep.key == key && dep.version > version) {
      version = dep.version;
    }
  }
  return version;
}

EpisodeConfig ConfigFor(uint64_t seed) {
  static const EpisodeConfig kGrid[4] = {
      {EnforcementBackendKind::kLineage, true, "lineage", "lineage/scoped"},
      {EnforcementBackendKind::kLineage, false, "lineage", "lineage/unscoped"},
      {EnforcementBackendKind::kStableFrontier, true, "stable_frontier", "frontier/scoped"},
      {EnforcementBackendKind::kStableFrontier, false, "stable_frontier",
       "frontier/unscoped"},
  };
  return kGrid[seed % 4];
}

struct EpisodeResult {
  uint64_t seed = 0;
  uint64_t trace_hash = 0;
  uint64_t events = 0;
  bool always_clean = false;
  bool xcy_consistent = false;
  uint64_t reads = 0;
  uint64_t deadline_misses = 0;  // barriers that expired (allowed, counted)
};

// Randomized fault schedule: 1–4 rules drawn from the full kind menu, every
// window finite and inside the episode span so every fault heals.
FaultPlan BuildPlan(Rng& rng, uint64_t seed, const std::string& posts,
                    const std::string& profile, const std::string& notif,
                    double span_ms) {
  FaultPlan plan{"sweep-" + std::to_string(seed), seed, {}};
  const int num_rules = 1 + static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < num_rules; ++i) {
    FaultRule rule;
    rule.start_model_ms = rng.NextUniform(0.0, span_ms * 0.5);
    rule.end_model_ms = rule.start_model_ms + rng.NextUniform(span_ms * 0.1, span_ms * 0.6);
    const Region target = rng.NextBernoulli(0.5) ? Region::kEu : Region::kSg;
    switch (rng.NextBelow(9)) {
      case 0:
        rule.kind = FaultKind::kLinkPartition;
        rule.store = rng.NextBernoulli(0.5) ? posts : profile;
        rule.to = target;
        break;
      case 1:
        rule.kind = FaultKind::kStoreStall;
        rule.store = rng.NextBernoulli(0.5) ? posts : profile;
        rule.to = target;
        break;
      case 2:
        rule.kind = FaultKind::kRegionOutage;
        rule.store = rng.NextBernoulli(0.5) ? posts : notif;
        rule.to = target;
        break;
      case 3:
        rule.kind = FaultKind::kLinkDelay;
        rule.delay_factor = 1.0 + rng.NextUniform(1.0, 3.0);
        rule.delay_add_model_ms = rng.NextUniform(5.0, 20.0);
        break;
      case 4:
        rule.kind = FaultKind::kRpcDropResponse;
        rule.service = "notify";
        rule.probability = rng.NextUniform(0.5, 0.9);
        break;
      case 5:
        rule.kind = FaultKind::kRpcFailure;
        rule.service = "notify";
        rule.probability = rng.NextUniform(0.2, 0.6);
        break;
      case 6:
        rule.kind = FaultKind::kRpcDelay;
        rule.service = "notify";
        rule.delay_add_model_ms = rng.NextUniform(30.0, 80.0);
        break;
      case 7:
        rule.kind = FaultKind::kQueueDropDelivery;
        rule.store = notif;
        rule.probability = rng.NextUniform(0.3, 0.8);
        break;
      default:
        // Apply errors against the multi-version profile key are what makes
        // delayed retries race fresh applies (store.stale_replay_ignored).
        rule.kind = FaultKind::kStoreApplyError;
        rule.store = rng.NextBernoulli(0.5) ? posts : profile;
        rule.probability = rng.NextUniform(0.2, 0.6);
        break;
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

// One deterministic episode. Everything the episode touches — scheduler,
// timers, topology, stores, shims, RPC mesh, fault plan — is private and
// seeded, so the schedule (and its trace hash) is a pure function of `seed`.
EpisodeResult RunEpisode(uint64_t seed) {
  EpisodeResult result;
  result.seed = seed;
  const EpisodeConfig config = ConfigFor(seed);

  PropertyRegistry::Instance().BeginRun();

  ScopedSimMode sim(seed);
  Rng rng(SimMix64(seed ^ 0x5157454550ULL));  // "SWEEP": decoupled from store seeds

  TimerServiceOptions timer_options;
  timer_options.deterministic = true;
  TimerService timers(timer_options);
  RegionTopology topology(/*jitter_sigma=*/0.1, /*seed=*/seed);
  FaultInjector injector;

  const std::vector<Region> all_regions = {Region::kUs, Region::kEu, Region::kSg};
  // Scoped episodes deploy the profile store on {US, EU} only: its writes'
  // locality scope excludes SG, so a scoped barrier at SG must skip them
  // (barrier.scope_respected) while the EU waits still arm. Unscoped
  // episodes replicate everywhere and wait everywhere.
  const std::vector<Region> profile_regions =
      config.use_scope ? std::vector<Region>{Region::kUs, Region::kEu} : all_regions;

  const std::string posts_name = "posts-" + std::to_string(seed);
  const std::string profile_name = "profile-" + std::to_string(seed);
  const std::string notif_name = "notif-" + std::to_string(seed);

  auto posts_options = KvStore::DefaultOptions(posts_name, all_regions);
  posts_options.replication.median_millis = 20.0;
  posts_options.replication.sigma = 0.3;
  posts_options.replication.seed = seed;
  posts_options.fault_injector = &injector;
  KvStore posts(std::move(posts_options), &topology, &timers);

  auto profile_options = KvStore::DefaultOptions(profile_name, profile_regions);
  profile_options.replication.median_millis = 15.0;
  profile_options.replication.sigma = 0.3;
  profile_options.replication.seed = seed + 1;
  profile_options.fault_injector = &injector;
  KvStore profile(std::move(profile_options), &topology, &timers);

  auto notif_options = QueueStore::DefaultOptions(notif_name, all_regions);
  notif_options.replication.median_millis = 30.0;
  notif_options.replication.sigma = 0.2;
  notif_options.replication.seed = seed + 2;
  notif_options.fault_injector = &injector;
  QueueStore notif(std::move(notif_options), &topology, &timers);

  KvShim posts_shim(&posts);
  KvShim profile_shim(&profile);
  ShimRegistry registry(ShimRegistry::Options{"sim-sweep", true, config.backend});
  registry.Register(&posts_shim);
  registry.Register(&profile_shim);

  SimulatedNetwork net(&topology, &timers, &injector);
  ServiceRegistry services(&net);
  RpcService* notify = services.RegisterService("notify", Region::kEu, 2);
  notify->RegisterMethod("ack", [](const std::string& payload) {
    return Result<std::string>("ok:" + payload);
  });
  RpcClient rpc(&services, Region::kUs, &injector);

  XcyHistoryChecker checker;
  constexpr uint64_t kWriterProcess = 1;

  const int num_posts = 8 + static_cast<int>(rng.NextBelow(5));  // 8..12
  std::vector<Lineage> lineages(static_cast<size_t>(num_posts));

  ThreadPool eu_pool(1, "sweep-eu");
  ThreadPool sg_pool(1, "sweep-sg");

  auto make_reader = [&](Region region, uint64_t process) {
    return [&, region, process](const BrokerMessage& message) {
      const int idx = std::atoi(std::string(message.payload()).c_str());
      if (idx < 0 || idx >= num_posts) {
        return;
      }
      const Lineage& lineage = lineages[static_cast<size_t>(idx)];
      // Mostly-generous deadlines, with a deterministic minority tight
      // enough to expire while a partition is still open — that is what
      // keeps barrier.deadline_exceeded (SOMETIMES) reachable.
      const bool tight = (idx % 7) == 3;
      BarrierOptions options;
      options.wait.deadline =
          DeadlineAfter(TimeScale::FromModelMillis(tight ? 4.0 : 20000.0));
      options.registry = &registry;
      options.use_scope = config.use_scope;
      options.backend = config.backend;
      const Status status = Barrier(lineage, region, options);
      if (!status.ok()) {
        ++result.deadline_misses;
        return;  // the app contract: no read without a completed barrier
      }
      // A second barrier on the now-memoized lineage: the memo fast path must
      // serve it, and with deep_checks on, barrier.memo_sound re-probes every
      // dependency the memo claims visible.
      (void)Barrier(lineage, region, options);
      // Read-your-barrier: post first (its lineage names the profile dep),
      // then the profile — the classic cross-service order that is stale
      // without enforcement. Every ObserveRead is an xcy.read_not_stale
      // evaluation in sim mode.
      const std::string post_key = "p" + std::to_string(idx);
      auto post = posts_shim.Read(region, post_key);
      if (post.ok()) {
        ++result.reads;
        checker.ObserveRead(process, posts_name, post_key,
                            VersionOf(post->lineage, posts_name, post_key),
                            post->lineage);
      }
      const bool profile_readable = !config.use_scope || region != Region::kSg;
      if (profile_readable) {
        auto bio = profile_shim.Read(region, "u0");
        if (bio.ok()) {
          ++result.reads;
          checker.ObserveRead(process, profile_name, "u0",
                              VersionOf(bio->lineage, profile_name, "u0"),
                              bio->lineage);
        }
      }
    };
  };
  notif.Subscribe(Region::kEu, "posts", &eu_pool, make_reader(Region::kEu, 2));
  notif.Subscribe(Region::kSg, "posts", &sg_pool, make_reader(Region::kSg, 3));

  // Total model span the fault windows live inside: the write loop's spacing
  // plus the settle tail.
  const double span_ms = static_cast<double>(num_posts) * 12.0 + 200.0;
  injector.Arm(BuildPlan(rng, seed, posts_name, profile_name, notif_name, span_ms));

  // Per-attempt timeout above the natural US→EU round trip (~90 model ms):
  // fault-free calls complete on the first attempt, and retries are driven by
  // the injected faults (dropped responses, handler failures, delay spikes) —
  // which is exactly when the service's dedup cache must absorb the re-send.
  RpcCallOptions rpc_options;
  rpc_options.timeout = TimeScale::FromModelMillis(150.0);
  rpc_options.deadline = TimeScale::FromModelMillis(600.0);
  rpc_options.retry.max_attempts = 3;
  rpc_options.retry.seed = seed;
  rpc_options.idempotent = true;

  for (int i = 0; i < num_posts; ++i) {
    Lineage lineage(1);
    if (i % 3 == 0) {
      lineage = profile_shim.Write(Region::kUs, "u0", "bio-v" + std::to_string(i),
                                   std::move(lineage));
    }
    const std::string key = "p" + std::to_string(i);
    Lineage before = lineage;
    lineage = posts_shim.Write(Region::kUs, key, "body-" + std::to_string(i),
                               std::move(lineage));
    checker.ObserveWrite(
        kWriterProcess, WriteId{posts_name, key, VersionOf(lineage, posts_name, key)},
        before);
    lineages[static_cast<size_t>(i)] = lineage;
    notif.Publish(Region::kUs, "posts", std::to_string(i));
    (void)rpc.Call("notify", "ack", std::to_string(i), rpc_options);
    GlobalClock().SleepFor(TimeScale::FromModelMillis(4.0 + rng.NextUniform(0.0, 8.0)));
  }

  // Settle: past every fault window (they all heal), past broker ack-timeout
  // redeliveries, past the replication tail.
  GlobalClock().SleepFor(TimeScale::FromModelMillis(span_ms + 5000.0));
  posts.DrainReplication();
  profile.DrainReplication();
  notif.DrainReplication();
  sim.scheduler().RunUntilQuiescent();
  injector.Disarm();
  sim.scheduler().RunUntilQuiescent();

  services.ShutdownAll();
  eu_pool.Shutdown();
  sg_pool.Shutdown();
  timers.Shutdown();
  sim.scheduler().RunUntilQuiescent();

  result.trace_hash = sim.scheduler().TraceHash();
  result.events = sim.scheduler().events_run();
  result.xcy_consistent = checker.Consistent();
  result.always_clean = PropertyRegistry::Instance().RunViolationFree();
  return result;
}

const char* KindName(PropertyKind kind) {
  switch (kind) {
    case PropertyKind::kAlways:
      return "ALWAYS";
    case PropertyKind::kSometimes:
      return "SOMETIMES";
    default:
      return "REACHABLE";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  TimeScale::Set(args.GetDouble("scale", 1.0));  // model ms == virtual ms
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int default_seeds = quick ? 200 : 1000;
  const int seeds = args.GetInt("seeds", default_seeds);
  const long long replay_seed = args.GetInt("replay-seed", -1);
  const std::string json_path = args.GetString("json-out", "BENCH_sim_sweep.json");
  PropertyRegistry::Instance().set_deep_checks(args.GetInt("deep-checks", 1) != 0);

  // Single-episode replay mode: run the seed twice, verify the trace hash
  // reproduces, report the verdict loudly.
  if (replay_seed >= 0) {
    const EpisodeResult first = RunEpisode(static_cast<uint64_t>(replay_seed));
    const EpisodeResult second = RunEpisode(static_cast<uint64_t>(replay_seed));
    std::printf("seed %lld: trace_hash=%016" PRIx64 " events=%" PRIu64
                " reads=%" PRIu64 " always=%s xcy=%s replay=%s\n",
                replay_seed, first.trace_hash, first.events, first.reads,
                first.always_clean ? "clean" : "VIOLATED",
                first.xcy_consistent ? "consistent" : "VIOLATED",
                first.trace_hash == second.trace_hash ? "exact" : "MISMATCH");
    PropertyRegistry::Instance().PrintSummary(std::cerr);
    return (first.always_clean && first.xcy_consistent &&
            first.trace_hash == second.trace_hash)
               ? 0
               : 1;
  }

  // Pre-register the reach catalogue. Properties normally register on first
  // reach, so a site the sweep silently failed to exercise would be invisible
  // to UnreachedSometimes(); registering up front turns "this workload must
  // drive retries, dedup hits, backlog replays, deadline misses, and every
  // injected fault kind" into a checked assertion.
  auto& pre = PropertyRegistry::Instance();
  pre.Register(PropertyKind::kSometimes, "barrier.deadline_exceeded");
  pre.Register(PropertyKind::kSometimes, "store.backlog_replayed");
  pre.Register(PropertyKind::kReachable, "rpc.retry_attempted");
  pre.Register(PropertyKind::kReachable, "rpc.dedup_hit");
  for (const char* fault :
       {"fault.link_partition", "fault.link_delay", "fault.rpc_failure",
        "fault.rpc_drop_response", "fault.rpc_delay", "fault.store_stall",
        "fault.store_apply_error", "fault.region_outage", "fault.queue_drop_delivery"}) {
    pre.Register(PropertyKind::kReachable, fault);
  }

  std::printf("# sim_sweep: %d seeded episodes (backend × scope grid, randomized faults)\n",
              seeds);

  std::vector<uint64_t> failing_seeds;
  std::map<std::string, int> per_config;
  uint64_t replays_checked = 0;
  uint64_t replay_mismatches = 0;
  uint64_t total_events = 0;
  uint64_t total_reads = 0;
  uint64_t deadline_misses = 0;

  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = static_cast<uint64_t>(i) + 1;
    const EpisodeResult result = RunEpisode(seed);
    total_events += result.events;
    total_reads += result.reads;
    deadline_misses += result.deadline_misses;
    per_config[ConfigFor(seed).label]++;
    if (!result.always_clean || !result.xcy_consistent) {
      failing_seeds.push_back(seed);
      std::fprintf(stderr,
                   "sim_sweep: FAILURE at seed %" PRIu64 " (always=%s xcy=%s)\n"
                   "  replay: %s --replay-seed=%" PRIu64 "\n",
                   seed, result.always_clean ? "clean" : "violated",
                   result.xcy_consistent ? "consistent" : "violated", argv[0], seed);
    }
    // Every 53rd episode replays immediately: same seed, fresh engines —
    // the hash must reproduce byte-for-byte.
    if (seed % 53 == 1) {
      ++replays_checked;
      const EpisodeResult replay = RunEpisode(seed);
      if (replay.trace_hash != result.trace_hash) {
        ++replay_mismatches;
        std::fprintf(stderr,
                     "sim_sweep: REPLAY MISMATCH at seed %" PRIu64 " (%016" PRIx64
                     " vs %016" PRIx64 ")\n  replay: %s --replay-seed=%" PRIu64 "\n",
                     seed, result.trace_hash, replay.trace_hash, argv[0], seed);
      }
    }
    if ((i + 1) % 250 == 0) {
      std::printf("# ... %d/%d episodes, %" PRIu64 " events, %zu failures\n", i + 1, seeds,
                  total_events, failing_seeds.size());
    }
  }

  auto& registry = PropertyRegistry::Instance();
  const auto snapshot = registry.Snapshot();
  const auto unreached = registry.UnreachedSometimes();
  const uint64_t always_failures = registry.TotalAlwaysFailures();

  std::printf("\n%-28s %-10s %12s %12s\n", "property", "kind", "passes", "failures");
  for (const auto& state : snapshot) {
    std::printf("%-28s %-10s %12" PRIu64 " %12" PRIu64 "\n", state.name.c_str(),
                KindName(state.kind), state.total_passes, state.total_failures);
  }
  std::printf("\n# %d episodes, %" PRIu64 " events, %" PRIu64 " checked reads, %" PRIu64
              " barrier deadline misses (allowed)\n",
              seeds, total_events, total_reads, deadline_misses);
  std::printf("# ALWAYS violations: %" PRIu64 ", unreached SOMETIMES/REACHABLE: %zu, "
              "replays %" PRIu64 "/%" PRIu64 " exact\n",
              always_failures, unreached.size(), replays_checked - replay_mismatches,
              replays_checked);
  for (const auto& name : unreached) {
    std::fprintf(stderr, "sim_sweep: SOMETIMES property never reached: %s\n", name.c_str());
  }

  JsonReport json;
  json.BeginObject()
      .Field("bench", "sim_sweep")
      .Field("quick", quick)
      .Field("seeds_run", static_cast<double>(seeds))
      .Field("events", static_cast<double>(total_events))
      .Field("checked_reads", static_cast<double>(total_reads))
      .Field("barrier_deadline_misses", static_cast<double>(deadline_misses))
      .Field("always_violations", static_cast<double>(always_failures))
      .Field("unreached_sometimes", static_cast<double>(unreached.size()))
      .Field("failing_seeds", static_cast<double>(failing_seeds.size()));
  json.BeginArray("configs");
  for (const auto& [label, count] : per_config) {
    json.BeginObject()
        .Field("label", label)
        .Field("episodes", static_cast<double>(count))
        .EndObject();
  }
  json.EndArray();
  json.BeginObject("replay")
      .Field("checked", static_cast<double>(replays_checked))
      .Field("mismatches", static_cast<double>(replay_mismatches))
      .EndObject();
  json.BeginArray("properties");
  for (const auto& state : snapshot) {
    json.BeginObject()
        .Field("name", state.name)
        .Field("kind", KindName(state.kind))
        .Field("passes", static_cast<double>(state.total_passes))
        .Field("failures", static_cast<double>(state.total_failures))
        .EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.WriteFile(json_path.c_str());
  std::printf("# wrote %s\n", json_path.c_str());

  const bool ok = failing_seeds.empty() && always_failures == 0 && unreached.empty() &&
                  replay_mismatches == 0;
  if (!ok) {
    std::fprintf(stderr, "sim_sweep: FAILED (%zu failing seeds, %" PRIu64
                         " ALWAYS violations, %zu unreached, %" PRIu64 " replay mismatches)\n",
                 failing_seeds.size(), always_failures, unreached.size(), replay_mismatches);
  }
  return ok ? 0 : 1;
}
