// Reproduces the §7.4 lineage-metadata analysis over the Alibaba-style
// trace: assuming the worst case where *every* stateful operation of a
// request joins the dependency chain, the paper found the lineage metadata
// stays below 1 KB for 99% of requests and averages ≈200 bytes.
//
// A second phase measures how much of that metadata visibility pruning sheds
// at the Serialize boundary (DESIGN.md §8): each stateful call is a write,
// replication to every region completes `--lag` calls after the write, and
// the request serializes its lineage `--delay` calls after its last write.
// Writes that have replicated everywhere by then can never block any barrier,
// so PruneVisibleEverywhere drops them from the baggage.
//
// Flags: --requests=<n> (default 100000), --lag=<calls> (default 64),
//        --delay=<calls> (default 32).

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/antipode/lineage.h"
#include "src/antipode/shim.h"
#include "src/trace/call_graph.h"

using namespace antipode;

namespace {

constexpr uint32_t kTraceStores = 12;  // AnalyzeTrace shards services over 12 stores
const std::vector<Region> kAllRegions = {Region::kUs, Region::kEu, Region::kSg};

struct PendingApply {
  std::string key;
  uint64_t version = 0;
  uint64_t written_at = 0;  // global call-clock tick of the write
};

// A synthetic store replicated to every region: the pruning probe answers from
// the highest version of each key applied so far (applies land at every
// region at once). Never waited on.
class SyntheticShim : public Shim {
 public:
  explicit SyntheticShim(std::string name) : name_(std::move(name)) {}

  const std::string& store_name() const override { return name_; }
  Status Wait(Region, const WriteId&, Duration) override {
    return Status::Unimplemented("synthetic store");
  }
  void WaitAsync(Region, const WriteId&, TimePoint, WaitCallback done) override {
    done(Status::Unimplemented("synthetic store"));
  }
  bool IsVisible(Region, const WriteId& id) override {
    auto it = applied_.find(id.key);
    return it != applied_.end() && it->second >= id.version;
  }
  RegionMask region_scope() const override { return RegionMaskOf(kAllRegions); }

  void Apply(const PendingApply& apply) {
    uint64_t& version = applied_[apply.key];
    version = std::max(version, apply.version);
  }

 private:
  std::string name_;
  std::unordered_map<std::string, uint64_t> applied_;
};

void PrintHistogram(const char* title, const Histogram& bytes) {
  std::printf("%-18s %10.0f %10.0f %10.0f %10.0f %10.0f\n", title, bytes.Mean(),
              bytes.Percentile(0.50), bytes.Percentile(0.90), bytes.Percentile(0.99),
              bytes.max());
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const auto requests = static_cast<uint32_t>(args.GetInt("requests", 100000));
  const auto lag = static_cast<uint64_t>(args.GetInt("lag", 64));
  const auto delay = static_cast<uint64_t>(args.GetInt("delay", 32));

  CallGraphGenerator generator(TraceGenOptions{});

  // One synthetic shim per store, same "storeN" naming AnalyzeTrace uses, so
  // PruneVisibleEverywhere resolves them by name through the registry.
  ShimRegistry registry;
  std::vector<std::unique_ptr<SyntheticShim>> stores;
  std::array<std::deque<PendingApply>, kTraceStores> in_flight;
  for (uint32_t s = 0; s < kTraceStores; ++s) {
    stores.push_back(std::make_unique<SyntheticShim>("store" + std::to_string(s)));
    registry.Register(stores.back().get());
  }

  // Mirrors AnalyzeTrace's lineage construction (same key rng derivation) so
  // the "before" column here matches the §7.4 analysis.
  Rng key_rng(generator.options().seed ^ 0xABCDEF);
  Histogram before_bytes;
  Histogram after_bytes;
  Histogram deps_before;
  Histogram deps_after;
  uint64_t clock = 0;

  for (uint32_t i = 0; i < requests; ++i) {
    CallGraphStats stats = generator.Next();
    Lineage lineage(i + 1);
    for (uint32_t service : stats.stateful_service_sequence) {
      const uint32_t store_idx = service % kTraceStores;
      WriteId id;
      id.store = "store" + std::to_string(store_idx);
      id.key = "s" + std::to_string(service) + "/k" + std::to_string(key_rng.NextBelow(2));
      id.version = 1 + key_rng.NextBelow(1 << 20);
      in_flight[store_idx].push_back(PendingApply{id.key, id.version, clock});
      ++clock;
      lineage.Append(std::move(id));
    }
    before_bytes.Record(static_cast<double>(lineage.WireSize()));
    deps_before.Record(static_cast<double>(lineage.Size()));

    // The request serializes its lineage `delay` ticks after its last write:
    // every write older than `lag` ticks at that point has applied at all
    // regions, so flush those applies into the stores before pruning.
    const uint64_t serialize_at = clock + delay;
    const uint64_t horizon = serialize_at >= lag ? serialize_at - lag : 0;
    for (uint32_t s = 0; s < kTraceStores; ++s) {
      auto& queue = in_flight[s];
      while (!queue.empty() && queue.front().written_at <= horizon) {
        stores[s]->Apply(queue.front());
        queue.pop_front();
      }
    }
    PruneVisibleEverywhere(lineage, registry);
    after_bytes.Record(static_cast<double>(lineage.WireSize()));
    deps_after.Record(static_cast<double>(lineage.Size()));
  }

  std::printf("# §7.4 worst-case lineage metadata size on the Alibaba-style trace "
              "(%u requests)\n",
              requests);
  std::printf("# watermark pruning model: replication lag %llu calls, serialize %llu "
              "calls after last write\n",
              static_cast<unsigned long long>(lag), static_cast<unsigned long long>(delay));
  std::printf("%-18s %10s %10s %10s %10s %10s\n", "wire bytes", "mean", "p50", "p90", "p99",
              "max");
  PrintHistogram("before pruning", before_bytes);
  PrintHistogram("after pruning", after_bytes);
  std::printf("%-18s %10s %10s %10s %10s %10s\n", "deps", "mean", "p50", "p90", "p99", "max");
  PrintHistogram("before pruning", deps_before);
  PrintHistogram("after pruning", deps_after);
  const double shed = before_bytes.Mean() > 0.0
                          ? 100.0 * (before_bytes.Mean() - after_bytes.Mean()) / before_bytes.Mean()
                          : 0.0;
  std::printf("# mean wire bytes shed by watermark pruning: %.1f%%\n", shed);
  std::printf("# paper: mean ~200 B, p99 < 1 KB (before pruning)\n");
  if (after_bytes.Mean() >= before_bytes.Mean()) {
    std::fprintf(stderr, "FAIL: pruning did not reduce mean wire size\n");
    return 1;
  }
  return 0;
}
