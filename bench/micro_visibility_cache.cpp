// Store-visibility microbench (DESIGN.md §8): the costs of the per-store
// tracker every apply feeds and of the record-backed probe that fronts every
// barrier wait.
//
// Phases:
//   NoteApply  tracker throughput, single writer. In-order seqs advance the
//              watermark with no pending-set churn; out-of-order seqs (blocks
//              applied in reverse) park in the pending set until the gap
//              fills, which is the worst case for the tracker lock.
//   probe      StoreVisibility::IsVisible / StampCovering throughput across
//              --threads concurrent readers of one store's records, for the
//              outcomes a barrier can see:
//                hit           the region applied the version (or a newer one)
//                version miss  the key is known, the version is not applied
//                unknown miss  no record for the key
//              Every miss falls back to the real wait in a barrier.
//
// Flags: --applies=<n> (default 200000), --keys=<n> (default 1024),
//        --threads=<n> (default 4), --lookups=<n per thread> (default 200000).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/store/kv_store.h"
#include "src/store/store_visibility.h"

using namespace antipode;

namespace {

const std::vector<Region> kAllRegions = {Region::kUs, Region::kEu, Region::kSg};

double MopsPerSec(uint64_t ops, std::chrono::steady_clock::duration elapsed) {
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return seconds > 0.0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

std::vector<std::string> MakeKeys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) keys.push_back("key/" + std::to_string(i));
  return keys;
}

double RunPopulate(int applies, bool in_order) {
  KvStore idle(KvStore::DefaultOptions("bench-tracker", kAllRegions));
  StoreVisibility store(idle);
  constexpr int kBlock = 64;  // out-of-order: each block applied in reverse
  const auto start = std::chrono::steady_clock::now();
  for (int block = 0; block * kBlock < applies; ++block) {
    for (int i = 0; i < kBlock; ++i) {
      const int offset = in_order ? i : kBlock - 1 - i;
      const uint64_t seq = static_cast<uint64_t>(block * kBlock + offset) + 1;
      if (seq > static_cast<uint64_t>(applies)) continue;
      store.NoteApply(Region::kUs, seq, seq);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (store.watermark(Region::kUs) != static_cast<uint64_t>(applies)) {
    std::fprintf(stderr, "FAIL: watermark %llu != applies %d\n",
                 static_cast<unsigned long long>(store.watermark(Region::kUs)), applies);
    std::exit(1);
  }
  return MopsPerSec(static_cast<uint64_t>(applies), elapsed);
}

// Runs `lookups` probes per thread through `probe` and returns aggregate Mops/s.
// Every probe's outcome is checked against `expect` so a silent behavioural
// change cannot masquerade as a speedup.
template <typename Probe>
double RunLookups(int threads, int lookups, bool expect, const Probe& probe) {
  std::vector<std::thread> workers;
  std::atomic<uint64_t> mismatches{0};
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t bad = 0;
      for (int i = 0; i < lookups; ++i) {
        if (probe(t, i) != expect) ++bad;
      }
      if (bad != 0) mismatches.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& worker : workers) worker.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (mismatches.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu probes returned the wrong outcome\n",
                 static_cast<unsigned long long>(mismatches.load()));
    std::exit(1);
  }
  return MopsPerSec(static_cast<uint64_t>(threads) * static_cast<uint64_t>(lookups), elapsed);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const int applies = args.GetInt("applies", 200000);
  const int key_count = args.GetInt("keys", 1024);
  const int threads = args.GetInt("threads", 4);
  const int lookups = args.GetInt("lookups", 200000);
  const std::vector<std::string> keys = MakeKeys(key_count);

  std::printf("# store visibility: %d applies, %d keys, %d lookup threads x %d lookups\n\n",
              applies, key_count, threads, lookups);
  std::printf("%-28s %12s\n", "phase", "Mops/s");
  std::printf("%-28s %12.2f\n", "NoteApply in-order", RunPopulate(applies, true));
  std::printf("%-28s %12.2f\n", "NoteApply out-of-order", RunPopulate(applies, false));

  // Probe bed: a single-region store (no shipments) holding version 10 of
  // every key, so each probe is one shard lock and one record lookup.
  KvStore store(KvStore::DefaultOptions("bench-probe", {Region::kUs}));
  for (const std::string& key : keys) {
    for (int v = 0; v < 10; ++v) store.Set(Region::kUs, key, "v");
  }
  const StoreVisibility& vis = store.visibility();
  const std::vector<std::string> unknown = [&] {
    std::vector<std::string> result;
    for (int i = 0; i < key_count; ++i) result.push_back("ghost/" + std::to_string(i));
    return result;
  }();

  std::printf("%-28s %12.2f\n", "IsVisible hit",
              RunLookups(threads, lookups, true, [&](int t, int i) {
                return vis.IsVisible(Region::kUs, keys[(t + i) % keys.size()], 10);
              }));
  std::printf("%-28s %12.2f\n", "IsVisible version miss",
              RunLookups(threads, lookups, false, [&](int t, int i) {
                return vis.IsVisible(Region::kUs, keys[(t + i) % keys.size()], 11);
              }));
  std::printf("%-28s %12.2f\n", "IsVisible unknown miss",
              RunLookups(threads, lookups, false, [&](int t, int i) {
                return vis.IsVisible(Region::kUs, unknown[(t + i) % unknown.size()], 1);
              }));
  std::printf("%-28s %12.2f\n", "StampCovering hit",
              RunLookups(threads, lookups, true, [&](int t, int i) {
                return vis.StampCovering(keys[(t + i) % keys.size()], 10) != 0;
              }));
  return 0;
}
