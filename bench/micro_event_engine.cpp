// Micro-benchmark for the sharded multi-worker timer engine.
//
// Section 1 drives the engine directly: N already-due events, each callback
// doing a short CPU spin plus a blocking sleep (the shape of real shipment
// callbacks, which block on apply hooks and simulated WAN sleeps). The
// inline configuration (1 shard, 0 workers) reproduces the legacy
// single-dispatcher engine; worker configurations overlap the blocking time.
//
// Section 2 drives the real ReplicatedStore::Put path with a blocking apply
// hook on a private engine, reporting end-to-end replication applies/sec and
// heap allocations per Put (writer-side submit + 2 shipment callbacks),
// counted by the bench-only global allocation hook.
//
// Section 3 is dispatch-bound: zero spin, zero block — pure per-event engine
// overhead (shard heap + MPSC handoff + wake), the queue-machinery number.
//
// Section 4 counts heap allocations per delivered broker message: the same
// publish loop on a single-region pub/sub store with two in-region
// subscribers and with none; the difference over the number of deliveries is
// what the delivery path itself allocates (the executor task included).
//
// Flags: --events=<n> --block-us=<us> --spin-us=<us> --puts=<n>
//        --messages=<n> --scale=<f>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/common/timer_service.h"
#include "src/net/region.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/store/pubsub_store.h"
#include "src/store/replicated_store.h"

namespace antipode {
namespace {

void SpinFor(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

struct EngineResult {
  double wall_ms = 0.0;
  double applies_per_sec = 0.0;
  double lag_mean_ms = 0.0;
  double lag_p99_ms = 0.0;
};

EngineResult RunEngineConfig(size_t num_shards, size_t num_workers, int events, int spin_us,
                             int block_us) {
  MetricsRegistry::Default().SnapshotAndReset();  // isolate this config's lag
  TimerService timers(TimerServiceOptions{.num_shards = num_shards, .num_workers = num_workers});
  std::atomic<int> fired{0};
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    timers.ScheduleAfter(Micros(0), static_cast<TimerService::AffinityToken>(i),
                         [&fired, spin_us, block_us] {
                           SpinFor(std::chrono::microseconds(spin_us));
                           std::this_thread::sleep_for(std::chrono::microseconds(block_us));
                           fired.fetch_add(1, std::memory_order_relaxed);
                         });
  }
  while (fired.load(std::memory_order_relaxed) < events) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  timers.Shutdown();

  EngineResult r;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count();
  r.applies_per_sec = events / (r.wall_ms / 1000.0);
  const Histogram lag =
      MetricsRegistry::Default().SnapshotAndReset().HistogramTotal("timer.dispatch_lag_ms");
  r.lag_mean_ms = lag.Mean();
  r.lag_p99_ms = lag.Percentile(0.99);
  return r;
}

struct StoreResult {
  double applies_per_sec = 0.0;
  double allocs_per_put = 0.0;
};

StoreResult RunStoreConfig(size_t num_shards, size_t num_workers, int puts, int block_us) {
  TimerService timers(TimerServiceOptions{.num_shards = num_shards, .num_workers = num_workers});
  StoreResult result;
  {
    ReplicatedStoreOptions options;
    options.name = "bench";
    options.regions = {Region::kUs, Region::kEu, Region::kSg};
    options.replication.median_millis = 5.0;
    options.replication.sigma = 0.0;
    ReplicatedStore store(options, &RegionTopology::Default(), &timers);
    std::atomic<int> applied{0};
    store.SetApplyHook([&applied, block_us](Region region, const EntryHandle&) {
      if (region == Region::kUs) {
        return;  // local apply on the writer thread: don't serialize the bench
      }
      std::this_thread::sleep_for(std::chrono::microseconds(block_us));
      applied.fetch_add(1, std::memory_order_relaxed);
    });
    // Warm-up: populate the entry-block pool, timer-node freelists, and
    // per-key version maps so the measured window is steady state.
    const int warmup = std::min(puts, 64);
    for (int i = 0; i < warmup; ++i) {
      store.Put(Region::kUs, "key-" + std::to_string(i), "v");
    }
    store.DrainReplication();
    const int measured_applies_base = applied.load();
    const uint64_t allocs_before = benchhook::AllocationCount();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < puts; ++i) {
      store.Put(Region::kUs, "key-" + std::to_string(i), "v");
    }
    store.DrainReplication();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const uint64_t allocs_after = benchhook::AllocationCount();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count();
    const int remote_applies = applied.load() - measured_applies_base;
    result.applies_per_sec = remote_applies / (wall_ms / 1000.0);
    result.allocs_per_put =
        puts > 0 ? static_cast<double>(allocs_after - allocs_before) / puts : 0.0;
  }
  timers.Shutdown();
  return result;
}

// Heap allocations of `messages` publishes (and their deliveries) on a fresh
// single-region pub/sub store with `subscribers` in-region subscribers.
uint64_t BrokerPublishAllocs(int messages, int subscribers, ThreadPool* consumers) {
  std::atomic<int> delivered{0};
  PubSubStore broker(
      PubSubStore::DefaultOptions("bench-broker-" + std::to_string(subscribers), {Region::kUs}));
  for (int i = 0; i < subscribers; ++i) {
    broker.Subscribe(Region::kUs, "topic", consumers, [&delivered](const BrokerMessage&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
  }
  const std::string payload(48, 'p');  // past any short-string buffer
  auto publish = [&](int n) {
    const int expected = delivered.load() + n * subscribers;
    for (int i = 0; i < n; ++i) {
      broker.Publish(Region::kUs, "topic", payload);
    }
    while (delivered.load() < expected) {
      std::this_thread::yield();
    }
  };
  publish(64);  // warm-up: entry-block pool, task-queue and record-table capacity
  const uint64_t before = benchhook::AllocationCount();
  publish(messages);
  return benchhook::AllocationCount() - before;
}

int Main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const int events = args.GetInt("events", 2000);
  const int spin_us = args.GetInt("spin-us", 5);
  const int block_us = args.GetInt("block-us", 200);
  const int puts = args.GetInt("puts", 300);
  const int messages = args.GetInt("messages", 20000);
  args.SetupTimeScale(0.02);

  std::printf("# engine: %d events, %dus spin + %dus blocking sleep per callback\n", events,
              spin_us, block_us);
  std::printf("%-22s %10s %14s %12s %12s %9s\n", "config", "wall_ms", "applies/sec",
              "lag_mean_ms", "lag_p99_ms", "speedup");

  const EngineResult baseline = RunEngineConfig(1, 0, events, spin_us, block_us);
  std::printf("%-22s %10.1f %14.0f %12.3f %12.3f %8.2fx\n", "inline (1 shard)", baseline.wall_ms,
              baseline.applies_per_sec, baseline.lag_mean_ms, baseline.lag_p99_ms, 1.0);

  double speedup_at_8 = 0.0;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    const EngineResult r = RunEngineConfig(4, workers, events, spin_us, block_us);
    const double speedup = r.applies_per_sec / baseline.applies_per_sec;
    if (workers == 8) {
      speedup_at_8 = speedup;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "4 shards, %zu workers", workers);
    std::printf("%-22s %10.1f %14.0f %12.3f %12.3f %8.2fx\n", label, r.wall_ms,
                r.applies_per_sec, r.lag_mean_ms, r.lag_p99_ms, speedup);
  }
  std::printf("# speedup at 8 workers vs inline engine: %.2fx %s\n", speedup_at_8,
              speedup_at_8 >= 3.0 ? "(>= 3x target met)" : "(below 3x target)");

  std::printf("\n# store: %d puts x 2 remote regions, %dus blocking apply hook\n", puts,
              block_us);
  const StoreResult store_inline = RunStoreConfig(1, 0, puts, block_us);
  const StoreResult store_workers = RunStoreConfig(4, 8, puts, block_us);
  std::printf("%-22s %14.0f applies/sec  %8.1f allocs/put\n", "inline (1 shard)",
              store_inline.applies_per_sec, store_inline.allocs_per_put);
  std::printf("%-22s %14.0f applies/sec  %8.1f allocs/put  (%.2fx)\n", "4 shards, 8 workers",
              store_workers.applies_per_sec, store_workers.allocs_per_put,
              store_workers.applies_per_sec / store_inline.applies_per_sec);

  std::printf("\n# dispatch-bound: %d events, zero spin, zero block (pure engine overhead)\n",
              events);
  const EngineResult dispatch_inline = RunEngineConfig(1, 0, events, 0, 0);
  const EngineResult dispatch_workers = RunEngineConfig(4, 8, events, 0, 0);
  std::printf("%-22s %14.0f events/sec\n", "inline (1 shard)", dispatch_inline.applies_per_sec);
  std::printf("%-22s %14.0f events/sec (%.2fx)\n", "4 shards, 8 workers",
              dispatch_workers.applies_per_sec,
              dispatch_workers.applies_per_sec / dispatch_inline.applies_per_sec);

  std::printf("\n# broker: %d messages, 2 in-region subscribers vs none\n", messages);
  ThreadPool consumers(1, "bench-consumers");
  const uint64_t without = BrokerPublishAllocs(messages, 0, &consumers);
  const uint64_t with = BrokerPublishAllocs(messages, 2, &consumers);
  consumers.Shutdown();
  std::printf("%-22s %8.2f allocs/delivered message\n", "pub/sub delivery",
              messages > 0 ? (static_cast<double>(with) - static_cast<double>(without)) /
                                 (2.0 * messages)
                           : 0.0);
  return 0;
}

}  // namespace
}  // namespace antipode

int main(int argc, char** argv) { return antipode::Main(argc, argv); }
