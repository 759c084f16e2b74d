// Barrier latency: sum-of-lags vs max-of-lags.
//
// Three stores with staggered replication lags (fast / medium / slow). A
// request writes one key in each and must enforce all three before its
// cross-region reader proceeds. Two enforcement strategies:
//
//   eager     write store0; barrier; write store1; barrier; write store2;
//             barrier — per-write enforcement: each barrier has exactly one
//             unmet dependency (the write just made). Replication of write
//             i+1 cannot even start until write i's lag has been paid, so
//             the request costs the SUM of the lags.
//   deferred  write all three, then ONE parallel barrier over the whole
//             lineage. All replication timers run concurrently and the
//             fan-out gathers them, so the request costs the MAX of the lags.
//
// The deferred phase runs under both enforcement backends — the native
// lineage strategy and the Okapi-style stable-frontier strategy (one HLC-cut
// wait per store instead of per-dependency waits) — and reports each one's
// wait time alongside the enforcement-metadata bytes it would ship per
// request (full lineage wire size vs a single HLC varint).
//
// A second phase measures the all-deps-already-visible case — the steady
// state when replication lag ≪ inter-request gap. Every write has long
// replicated, so the barrier does no model-time waiting and the measurement
// is pure wall-clock overhead: the record probe answers every dependency
// with a striped-shard lookup and the barrier returns with zero
// registry/timer/pool traffic (`barrier.zero_wait`, asserted).
//
// A third phase measures thundering-herd wakeups: waiters parked on cold
// keys while a writer hammers hot keys. With the per-key waiter registry an
// apply notifies only waiters of the written key (waiters_notified/applies
// stays O(matching)); the legacy single-condvar design would have woken every
// resident waiter per apply (notify_all_wakeups/applies).
//
// Flags: --requests=<n> (default 200), --scale=<f> (default 0.02),
//        --visible-barriers=<n>, --writes=<n>, --json-out=<path>
//        (machine-readable report of every phase).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/antipode/antipode.h"
#include "src/common/histogram.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"

namespace antipode {
namespace {

const std::vector<Region> kRegions = {Region::kUs, Region::kEu};
constexpr int kStores = 3;
constexpr double kMedians[kStores] = {40.0, 120.0, 360.0};

struct Bed {
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<KvShim>> shims;
  ShimRegistry registry;

  explicit Bed(const std::string& tag) {
    for (int i = 0; i < kStores; ++i) {
      auto options = KvStore::DefaultOptions(tag + std::to_string(i), kRegions);
      options.replication.median_millis = kMedians[i];
      options.replication.sigma = 0.05;
      stores.push_back(std::make_unique<KvStore>(std::move(options)));
      shims.push_back(std::make_unique<KvShim>(stores.back().get()));
      registry.Register(shims.back().get());
    }
  }
};

double RunEager(int requests, Histogram* hist) {
  Bed bed("eager");
  const BarrierOptions options{.registry = &bed.registry};
  for (int r = 0; r < requests; ++r) {
    const TimePoint start = SystemClock::Instance().Now();
    Lineage lineage(static_cast<uint64_t>(r) + 1);
    for (int i = 0; i < kStores; ++i) {
      lineage = bed.shims[static_cast<size_t>(i)]->Write(
          Region::kUs, "k" + std::to_string(r), "v", std::move(lineage));
      // Enforce before the next service hop, one store at a time.
      if (!Barrier(lineage, Region::kEu, options).ok()) {
        std::fprintf(stderr, "eager barrier failed\n");
        std::exit(1);
      }
    }
    hist->Record(TimeScale::ToModelMillis(
        std::chrono::duration_cast<Duration>(SystemClock::Instance().Now() - start)));
  }
  double max_store_lag_p50 = 0.0;
  for (auto& store : bed.stores) {
    max_store_lag_p50 = std::max(max_store_lag_p50, store->metrics().ReplicationLag().Percentile(0.5));
  }
  return max_store_lag_p50;
}

struct DeferredResult {
  double max_store_lag_p50 = 0.0;
  // Mean enforcement-metadata bytes the request's barrier ships under this
  // backend: the full lineage wire size vs one HLC-cut varint.
  double metadata_bytes_per_req = 0.0;
};

DeferredResult RunDeferred(int requests, Histogram* hist, EnforcementBackendKind backend,
                           const char* tag) {
  Bed bed(tag);
  const BarrierOptions options{.registry = &bed.registry, .backend = backend};
  uint64_t metadata_total = 0;
  for (int r = 0; r < requests; ++r) {
    const TimePoint start = SystemClock::Instance().Now();
    Lineage lineage(static_cast<uint64_t>(r) + 1);
    for (int i = 0; i < kStores; ++i) {
      lineage = bed.shims[static_cast<size_t>(i)]->Write(
          Region::kUs, "k" + std::to_string(r), "v", std::move(lineage));
    }
    metadata_total += EnforcementMetadataBytes(backend, lineage);
    // One parallel barrier over the whole lineage: cost = max of the lags.
    if (!Barrier(lineage, Region::kEu, options).ok()) {
      std::fprintf(stderr, "deferred barrier failed\n");
      std::exit(1);
    }
    hist->Record(TimeScale::ToModelMillis(
        std::chrono::duration_cast<Duration>(SystemClock::Instance().Now() - start)));
  }
  DeferredResult result;
  for (auto& store : bed.stores) {
    result.max_store_lag_p50 =
        std::max(result.max_store_lag_p50, store->metrics().ReplicationLag().Percentile(0.5));
  }
  result.metadata_bytes_per_req =
      requests == 0 ? 0.0 : static_cast<double>(metadata_total) / requests;
  return result;
}

// All-deps-already-visible: writes have long replicated, so the barrier does
// no model-time waiting and the cost is pure wall-clock overhead. Measured in
// real microseconds (steady clock), not model time. Returns the p50 in µs.
double RunAllVisible(int barriers, Histogram* hist) {
  Bed bed("vis");
  // 8 keys per store → 24 dependencies per barrier, all at the same region.
  Lineage lineage(1);
  for (int i = 0; i < kStores; ++i) {
    for (int k = 0; k < 8; ++k) {
      lineage = bed.shims[static_cast<size_t>(i)]->Write(
          Region::kUs, "k" + std::to_string(k), "v", std::move(lineage));
    }
  }
  for (auto& store : bed.stores) {
    store->DrainReplication();  // every dependency visible at every region
  }
  const BarrierOptions options{.registry = &bed.registry};
  // Warm-up: the first barrier probes every dependency visible and sets the
  // lineage's enforcement memo, so everything after it is memo-served.
  if (!Barrier(lineage, Region::kEu, options).ok()) {
    std::fprintf(stderr, "all-visible warm-up barrier failed\n");
    std::exit(1);
  }
  Counter* zero_wait = MetricsRegistry::Default().GetCounter("barrier.zero_wait");
  const uint64_t zero_wait_before = zero_wait->value();
  uint64_t waiters_before = 0;
  for (auto& store : bed.stores) {
    waiters_before += store->TotalWakeups().waiters_notified;
  }
  for (int r = 0; r < barriers; ++r) {
    const auto start = std::chrono::steady_clock::now();
    if (!Barrier(lineage, Region::kEu, options).ok()) {
      std::fprintf(stderr, "all-visible barrier failed\n");
      std::exit(1);
    }
    hist->Record(static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                                         .count()) /
                 1000.0);
  }
  const uint64_t zero_wait_delta = zero_wait->value() - zero_wait_before;
  uint64_t waiters_notified = 0;
  for (auto& store : bed.stores) {
    waiters_notified += store->TotalWakeups().waiters_notified;
  }
  waiters_notified -= waiters_before;
  std::printf("%-24s %10.1f %10.1f %10.1f   zero_wait %llu/%d, waiters woken %llu\n",
              "all-visible", hist->Percentile(0.5), hist->Percentile(0.99), hist->Mean(),
              static_cast<unsigned long long>(zero_wait_delta), barriers,
              static_cast<unsigned long long>(waiters_notified));
  if (zero_wait_delta != static_cast<uint64_t>(barriers)) {
    std::fprintf(stderr, "FAIL: expected barrier.zero_wait == barrier count (%d), got %llu\n",
                 barriers, static_cast<unsigned long long>(zero_wait_delta));
    std::exit(1);
  }
  return hist->Percentile(0.5);
}

struct WakeupReport {
  uint64_t applies = 0;
  double per_apply_new = 0.0;
  double per_apply_legacy = 0.0;
};

WakeupReport RunWakeups(int writes) {
  auto options = KvStore::DefaultOptions("wake", kRegions);
  options.replication.median_millis = 80.0;
  options.replication.sigma = 0.1;
  KvStore store(std::move(options));
  KvShim shim(&store);
  ShimRegistry registry;
  registry.Register(&shim);

  // Park waiters on keys nobody will write during the burst.
  constexpr int kParked = 64;
  for (int i = 0; i < kParked; ++i) {
    store.WaitVisibleAsync(Region::kEu, "cold" + std::to_string(i), 1,
                           SystemClock::Instance().Now() + std::chrono::minutes(5),
                           [](Status) {});
  }
  Lineage lineage(1);
  for (int i = 0; i < writes; ++i) {
    lineage = shim.Write(Region::kUs, "hot" + std::to_string(i % 16), "v", std::move(lineage));
  }
  if (!Barrier(lineage, Region::kEu, BarrierOptions{.registry = &registry}).ok()) {
    std::fprintf(stderr, "wakeup-phase barrier failed\n");
    std::exit(1);
  }
  store.DrainReplication();
  const WakeupStats stats = store.TotalWakeups();
  const double per_apply_new =
      stats.applies == 0 ? 0.0
                         : static_cast<double>(stats.waiters_notified) /
                               static_cast<double>(stats.applies);
  const double per_apply_legacy =
      stats.applies == 0 ? 0.0
                         : static_cast<double>(stats.notify_all_wakeups) /
                               static_cast<double>(stats.applies);
  std::printf("\n# wakeups (%d parked cold waiters, %d hot writes)\n", kParked, writes);
  std::printf("%-28s %12s\n", "metric", "value");
  std::printf("%-28s %12llu\n", "applies",
              static_cast<unsigned long long>(stats.applies));
  std::printf("%-28s %12.2f  (per-key registry: only matching waiters)\n",
              "wakeups/apply (new)", per_apply_new);
  std::printf("%-28s %12.2f  (legacy notify_all: every resident waiter)\n",
              "wakeups/apply (legacy)", per_apply_legacy);
  // Release the parked waiters before the store is torn down.
  for (int i = 0; i < kParked; ++i) {
    store.Set(Region::kUs, "cold" + std::to_string(i), "v");
  }
  store.DrainReplication();
  return WakeupReport{stats.applies, per_apply_new, per_apply_legacy};
}

int Main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  args.SetupTimeScale();
  const int requests = args.GetInt("requests", 200);
  std::printf("# 3 stores, replication lag medians %g / %g / %g model ms (sigma 0.05)\n",
              kMedians[0], kMedians[1], kMedians[2]);
  std::printf("# per-request: 3 writes (one per store) + cross-region enforcement\n\n");

  Histogram eager;
  Histogram deferred;
  Histogram deferred_frontier;
  RunEager(requests, &eager);
  const DeferredResult defer_lineage =
      RunDeferred(requests, &deferred, EnforcementBackendKind::kLineage, "defer");
  const DeferredResult defer_frontier =
      RunDeferred(requests, &deferred_frontier, EnforcementBackendKind::kStableFrontier, "defsf");
  const double max_lag_p50 = defer_lineage.max_store_lag_p50;
  const double sum_medians = kMedians[0] + kMedians[1] + kMedians[2];

  std::printf("%-24s %10s %10s %10s\n", "strategy", "p50 ms", "p99 ms", "mean ms");
  std::printf("%-24s %10.1f %10.1f %10.1f   (one wait per write: ~sum of lags, Σ medians=%.0f)\n",
              "eager per-write", eager.Percentile(0.5), eager.Percentile(0.99), eager.Mean(),
              sum_medians);
  std::printf("%-24s %10.1f %10.1f %10.1f   (parallel fan-out: ~max of lags)\n",
              "deferred parallel", deferred.Percentile(0.5), deferred.Percentile(0.99),
              deferred.Mean());
  std::printf("%-24s %10.1f %10.1f %10.1f   (stable-frontier: one HLC cut)\n",
              "deferred frontier", deferred_frontier.Percentile(0.5),
              deferred_frontier.Percentile(0.99), deferred_frontier.Mean());
  const double ratio = deferred.Percentile(0.5) / eager.Percentile(0.5);
  std::printf("\n# deferred/eager p50 ratio: %.2f\n", ratio);
  std::printf("# slowest store replication-lag p50: %.1f model ms; deferred p50 within %.0f%%\n",
              max_lag_p50,
              max_lag_p50 > 0 ? 100.0 * (deferred.Percentile(0.5) - max_lag_p50) / max_lag_p50
                              : 0.0);
  std::printf("# metadata bytes/request: lineage %.1f vs stable-frontier %.1f (%.1fx smaller)\n",
              defer_lineage.metadata_bytes_per_req, defer_frontier.metadata_bytes_per_req,
              defer_frontier.metadata_bytes_per_req > 0
                  ? defer_lineage.metadata_bytes_per_req / defer_frontier.metadata_bytes_per_req
                  : 0.0);

  const int visible_barriers = args.GetInt("visible-barriers", 2000);
  std::printf("\n# all-deps-already-visible (24 deps/barrier, wall-clock µs, %d barriers)\n",
              visible_barriers);
  std::printf("%-24s %10s %10s %10s\n", "scenario", "p50 us", "p99 us", "mean us");
  Histogram visible;
  const double visible_p50 = RunAllVisible(visible_barriers, &visible);

  const WakeupReport wakeups = RunWakeups(args.GetInt("writes", 400));

  const std::string json_out = args.GetString("json-out", "");
  if (!json_out.empty()) {
    JsonReport json;
    json.BeginObject()
        .Field("bench", "micro_barrier")
        .Field("requests", requests)
        .HistogramField("eager_model_ms", eager)
        .HistogramField("deferred_model_ms", deferred)
        .HistogramField("deferred_frontier_model_ms", deferred_frontier)
        .Field("deferred_eager_p50_ratio", ratio)
        .Field("slowest_store_lag_p50_model_ms", max_lag_p50)
        .BeginObject("metadata_bytes_per_req")
        .Field("lineage", defer_lineage.metadata_bytes_per_req)
        .Field("stable_frontier", defer_frontier.metadata_bytes_per_req)
        .EndObject()
        .Field("all_visible_p50_us", visible_p50)
        .BeginObject("wakeups")
        .Field("applies", wakeups.applies)
        .Field("per_apply_new", wakeups.per_apply_new)
        .Field("per_apply_legacy", wakeups.per_apply_legacy)
        .EndObject()
        .EndObject();
    if (!json.WriteFile(json_out)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace antipode

int main(int argc, char** argv) { return antipode::Main(argc, argv); }
