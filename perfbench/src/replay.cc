#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>

#include "bench/alloc_hook.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/spans.h"
#include "src/antipode/antipode.h"
#include "src/common/clock.h"
#include "src/context/request_context.h"
#include "src/rpc/rpc.h"
#include "src/store/kv_store.h"

namespace perfbench {

using antipode::benchhook::AllocationCount;
using antipode::KvShim;
using antipode::KvStore;
using antipode::Lineage;
using antipode::LineageApi;
using antipode::Region;
using antipode::RequestContext;
using antipode::ScopedContext;
using antipode::WriteId;

namespace {

constexpr int kOps = 2000;          // timed operations per replay
constexpr int kBatch = 64;          // cache probes per timed batch
constexpr int kHopAppends = 4;      // Append calls per context hop
constexpr size_t kMaxProbeDeps = 64;
constexpr char kValue[] = "replay-value:0123456789abcdef";

// Results of replayed calls land here so the calls cannot be optimized out.
volatile size_t g_sink = 0;

// Timed samples (ns) → median.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(static_cast<double>(ns)); }
  double Median() const { return Quantile(ns_, 0.5); }

 private:
  std::vector<double> ns_;
};

// Inputs with a fallback when the traced window captured nothing.
const std::string& Pick(const std::vector<std::string>& items, size_t i,
                        const std::string& fallback) {
  return items.empty() ? fallback : items[i % items.size()];
}

// Restores TimeScale on every exit path.
class ScopedTimeScale {
 public:
  explicit ScopedTimeScale(double scale) : previous_(antipode::TimeScale::Get()) {
    antipode::TimeScale::Set(scale);
  }
  ~ScopedTimeScale() { antipode::TimeScale::Set(previous_); }
  ScopedTimeScale(const ScopedTimeScale&) = delete;
  ScopedTimeScale& operator=(const ScopedTimeScale&) = delete;

 private:
  double previous_;
};

}  // namespace

ReplayResult RunReplays(const ReplayInput& input, const std::string& tag) {
  ScopedTimeScale no_model_sleeps(0.0);
  ReplayResult out;
  const std::string empty_context = [] {
    ScopedContext scoped{RequestContext()};
    LineageApi::Root();
    return RequestContext::SerializeCurrent();
  }();
  const std::string empty_lineage = Lineage().Serialize();
  size_t sink = 0;

  // --- src/rpc: one blocking call through a resolved route to an echo
  // handler, with a captured context installed (serialized into the request,
  // merged back from the response).
  {
    antipode::ServiceRegistry registry;
    antipode::RpcService* echo = registry.RegisterService("perfbench-echo-" + tag, Region::kEu, 1);
    echo->RegisterMethod("echo", [](const std::string& payload) -> antipode::Result<std::string> {
      return payload;
    });
    antipode::RpcClient client(&registry, Region::kEu);
    auto route = client.Resolve("perfbench-echo-" + tag, "echo");
    Samples samples;
    uint64_t allocs = 0;
    const std::string payload = "replay";
    for (int i = 0; i < kOps && route.ok(); ++i) {
      ScopedContext scoped(
          RequestContext::Deserialize(Pick(input.contexts, static_cast<size_t>(i), empty_context)));
      const uint64_t a0 = AllocationCount();
      const int64_t t0 = NowNs();
      auto result = client.Call(*route, payload);
      const int64_t t1 = NowNs();
      allocs += AllocationCount() - a0;
      samples.Add(t1 - t0);
      sink += result.ok() ? result->size() : 0;
    }
    registry.ShutdownAll();
    out.rpc_hop_ns = samples.Median();
    out.rpc_hop_allocs = static_cast<double>(allocs) / kOps;
  }

  // --- src/context: one hop's context work — decode the blob, append the
  // hop's writes, re-encode for the next hop.
  {
    Samples samples;
    uint64_t allocs = 0;
    double blob_bytes = 0;
    for (const std::string& blob : input.contexts) {
      blob_bytes += static_cast<double>(blob.size());
    }
    out.context_blob_bytes =
        input.contexts.empty() ? 0.0 : blob_bytes / static_cast<double>(input.contexts.size());
    for (int i = 0; i < kOps; ++i) {
      WriteId ids[kHopAppends];
      for (int k = 0; k < kHopAppends; ++k) {
        ids[k].store = "replay-hop";
        ids[k].key = "hop/k" + std::to_string(k);
        ids[k].version = static_cast<uint64_t>(i * kHopAppends + k + 1);
      }
      const std::string& blob = Pick(input.contexts, static_cast<size_t>(i), empty_context);
      const uint64_t a0 = AllocationCount();
      const int64_t t0 = NowNs();
      {
        ScopedContext scoped(RequestContext::Deserialize(blob));
        for (const WriteId& id : ids) {
          LineageApi::Append(id);
        }
        sink += RequestContext::SerializeCurrent().size();
      }
      const int64_t t1 = NowNs();
      allocs += AllocationCount() - a0;
      samples.Add(t1 - t0);
    }
    out.context_hop_ns = samples.Median();
    out.context_hop_allocs = static_cast<double>(allocs) / kOps;
  }

  // --- src/antipode lineage codec on the captured barrier-site lineages.
  {
    Samples encode;
    Samples decode;
    uint64_t allocs = 0;
    for (int i = 0; i < kOps; ++i) {
      const std::string& blob = Pick(input.lineages, static_cast<size_t>(i), empty_lineage);
      const uint64_t a0 = AllocationCount();
      const int64_t t0 = NowNs();
      auto lineage = Lineage::Deserialize(blob);
      const int64_t t1 = NowNs();
      allocs += AllocationCount() - a0;
      decode.Add(t1 - t0);
      if (lineage.ok()) {
        const int64_t t2 = NowNs();
        sink += lineage->Serialize().size();
        encode.Add(NowNs() - t2);
      }
    }
    out.lineage_decode_ns = decode.Median();
    out.lineage_encode_ns = encode.Median();
    out.lineage_decode_allocs = static_cast<double>(allocs) / kOps;
  }

  // --- src/store and src/antipode shims on a private EU/US KvStore. Alloc
  // figures include the replication fan-out (counted through the drain).
  auto options = KvStore::DefaultOptions("pb-replay-" + tag, {Region::kEu, Region::kUs});
  options.replication.slow_mode_probability = 0.0;
  KvStore store(std::move(options));
  KvShim shim(&store);
  antipode::ShimRegistry registry;
  registry.Register(&shim);
  {
    Samples samples;
    const uint64_t a0 = AllocationCount();
    for (int i = 0; i < kOps; ++i) {
      const std::string key = "put/" + std::to_string(i);
      std::string value = kValue;
      const int64_t t0 = NowNs();
      store.Set(Region::kEu, key, std::move(value));
      samples.Add(NowNs() - t0);
    }
    store.DrainReplication();
    out.store_put_ns = samples.Median();
    out.store_put_allocs = static_cast<double>(AllocationCount() - a0) / kOps;
  }
  {
    Samples samples;
    uint64_t allocs = 0;
    for (int i = 0; i < kOps; ++i) {
      const std::string key = "write/" + std::to_string(i);
      ScopedContext scoped{RequestContext()};
      LineageApi::Root();
      const uint64_t a0 = AllocationCount();
      const int64_t t0 = NowNs();
      auto status = shim.WriteCtx(Region::kEu, key, kValue);
      samples.Add(NowNs() - t0);
      allocs += AllocationCount() - a0;
      sink += status.ok() ? 1 : 0;
    }
    const uint64_t a0 = AllocationCount();
    store.DrainReplication();
    allocs += AllocationCount() - a0;
    out.shim_write_ns = samples.Median();
    out.shim_write_allocs = static_cast<double>(allocs) / kOps;
  }
  {
    Samples samples;
    for (int i = 0; i < kOps; ++i) {
      const std::string key = "write/" + std::to_string(i);
      const int64_t t0 = NowNs();
      auto result = shim.Read(Region::kEu, key);
      samples.Add(NowNs() - t0);
      sink += result.ok() ? result->value.size() : 0;
    }
    out.shim_read_ns = samples.Median();
  }

  // --- barrier + visibility cache: a lineage with the workload's dependency
  // count, every dependency already replicated, decoded fresh before each
  // barrier (no enforcement memo) — the probe path.
  {
    const auto deps = static_cast<size_t>(
        std::clamp(std::lround(input.mean_deps), 1L, static_cast<long>(kMaxProbeDeps)));
    std::string blob;
    std::vector<WriteId> written;
    {
      ScopedContext scoped{RequestContext()};
      LineageApi::Root();
      for (size_t d = 0; d < deps; ++d) {
        (void)shim.WriteCtx(Region::kEu, "probe/" + std::to_string(d), kValue);
      }
      const Lineage lineage = LineageApi::Current().value_or(Lineage());
      blob = lineage.Serialize();
      written.assign(lineage.deps().begin(), lineage.deps().end());
    }
    store.DrainReplication();
    antipode::BarrierOptions barrier_options;
    barrier_options.registry = &registry;
    Samples barrier;
    for (int i = 0; i < kOps; ++i) {
      auto lineage = Lineage::Deserialize(blob);
      if (!lineage.ok()) {
        break;
      }
      const int64_t t0 = NowNs();
      auto status = antipode::Barrier(*lineage, Region::kUs, barrier_options);
      barrier.Add(NowNs() - t0);
      sink += status.ok() ? 1 : 0;
    }
    out.barrier_probe_ns = barrier.Median();

    Samples probe;
    const auto visibility = shim.visibility();
    for (int i = 0; i < kOps / 8 && visibility != nullptr && !written.empty(); ++i) {
      const int64_t t0 = NowNs();
      for (int b = 0; b < kBatch; ++b) {
        const WriteId& id = written[static_cast<size_t>(b) % written.size()];
        sink += visibility->IsVisible(Region::kUs, id.key, id.version) ? 1 : 0;
      }
      probe.Add((NowNs() - t0) / kBatch);
    }
    out.cache_probe_ns = probe.Median();
  }
  store.DrainReplication();
  g_sink = sink;
  return out;
}

}  // namespace perfbench
