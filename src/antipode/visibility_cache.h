// Process-wide visibility cache: the read-mostly fast path in front of every
// barrier wait (DESIGN.md §8). Visibility is monotone — once ⟨store, key,
// version⟩ is visible at a region it stays visible — so a cache hit can never
// be invalidated, which makes this the rare cache with no coherence protocol:
// population only ever raises versions and watermarks.
//
// Two-level structure per store:
//   * a lock-striped per-key table mapping key → (latest write, highest
//     version known visible per region), populated event-driven from
//     ReplicatedStore apply notifications and from completed shim waits;
//   * a per-⟨store, region⟩ apply low-watermark over the store's write
//     sequence numbers: W(r) = highest S such that every write with seq ≤ S
//     has applied at r. One atomic load covers every old write of a key whose
//     latest write sits at or below the watermark.
//
// The watermark tracker doubles as the *stabilization frontier* feed for the
// stable-frontier enforcement backend (DESIGN.md §12): each apply carries the
// write's HLC stamp, so alongside W(r) the tracker publishes F(r) — the stamp
// of the newest write in the applied contiguous prefix. Stamps are monotone
// in sequence numbers (ReplicatedStore stamps both under one lock), so
// F(r) ≥ c proves every write stamped ≤ c has applied at r. `AwaitFrontier`
// registers event-driven waiters on that condition; they are woken from the
// same NoteApply calls that advance the watermark.
//
// A lookup is a striped-shard probe plus one atomic watermark load, with no
// allocation. A miss is always safe: the caller falls back to the real wait,
// which repopulates the cache on completion.
//
// The min-across-regions watermark additionally powers lineage pruning
// (Lineage::PruneVisibleEverywhere): a dependency visible at every region of
// its store can never block any barrier anywhere, so baggage can shed it.
//
// Layering: this header depends only on common + net, so the store layer can
// publish apply notifications without a dependency cycle (the sources live in
// src/antipode/ but compile into the `antipode_visibility` library that both
// antipode_store and antipode_core link).

#ifndef SRC_ANTIPODE_VISIBILITY_CACHE_H_
#define SRC_ANTIPODE_VISIBILITY_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/region.h"

namespace antipode {

// Visibility state of one registered store. Thread-safe; all methods may race
// freely with each other. Writers (NoteApply/NoteVisible) only ever raise
// versions and watermarks, so readers can combine the per-key probe with the
// watermark load without ordering hazards: a stale read yields a miss, never
// a false hit.
class StoreVisibility {
 public:
  StoreVisibility(std::string name, const std::vector<Region>& regions);

  const std::string& name() const { return name_; }
  bool TracksRegion(Region region) const { return tracked_[RegionIndex(region)]; }
  // The store's replica footprint as a bitmask — what lineage pruning narrows
  // dependency locality scopes against (a region outside the footprint can
  // never read this store's writes, so it never needs enforcement).
  RegionMask tracked_mask() const { return tracked_mask_; }

  // A write was stamped at its origin: `seq` is the store's dense write
  // sequence number, `hlc` its hybrid-logical-clock stamp. Called by
  // ReplicatedStore::Put under the same lock that assigns both (so issued
  // order equals stamp order — the caught-up rule below depends on it).
  void NoteIssued(uint64_t seq, uint64_t hlc);

  // An apply notification: the write ⟨key, version⟩ with per-store sequence
  // number `seq` and HLC stamp `hlc` became visible at `region`. Called by
  // ReplicatedStore for every apply (local and replicated), exactly once per
  // ⟨seq, region⟩. `hlc` may be 0 for stores that do not stamp writes; the
  // watermark still advances, only the frontier stays at 0.
  void NoteApply(Region region, std::string_view key, uint64_t version, uint64_t seq,
                 uint64_t hlc = 0);

  // A completed wait observed ⟨key, version⟩ visible at `region` (sequence
  // number unknown — e.g. a foreign shim's wait). Feeds only the per-key
  // table, never the watermark.
  void NoteVisible(Region region, std::string_view key, uint64_t version);

  // True iff ⟨key, version⟩ is known visible at `region`. False means
  // "unknown", not "invisible" — callers fall back to the real wait/probe.
  bool IsVisible(Region region, std::string_view key, uint64_t version) const;

  // True iff ⟨key, version⟩ is known visible at every region this store
  // replicates to — the lineage-pruning soundness condition.
  bool IsVisibleEverywhere(std::string_view key, uint64_t version) const;

  // Apply low-watermark of `region`: every write with seq ≤ watermark has
  // applied there. 0 until the first in-order apply.
  uint64_t watermark(Region region) const {
    return watermarks_[RegionIndex(region)].load(std::memory_order_acquire);
  }

  // min over tracked regions — the pruning bound.
  uint64_t MinWatermark() const;

  // --- stabilization frontier (stable-frontier backend feed) ---------------

  // F(region): HLC stamp of the newest write in the region's applied
  // contiguous prefix. Every write stamped ≤ F(region) has applied there
  // (stamps are monotone in seq). 0 until the first stamped in-order apply.
  uint64_t FrontierHlc(Region region) const {
    return frontiers_[RegionIndex(region)].load(std::memory_order_acquire);
  }

  // Highest ⟨seq, hlc⟩ this store has stamped (NoteIssued). 0 before the
  // first stamped write.
  uint64_t LatestIssuedSeq() const { return issued_seq_.load(std::memory_order_acquire); }
  uint64_t LatestIssuedHlc() const { return issued_hlc_.load(std::memory_order_acquire); }

  // True iff this store cannot be hiding a write stamped ≤ `cut` from
  // `region`: either the frontier has passed the cut, or the region has
  // applied everything the store ever issued (the caught-up rule — an idle
  // store must not stall global stabilization; any write it issues later is
  // stamped after the cut because stamps are process-wide monotone).
  bool FrontierCovers(Region region, uint64_t cut) const {
    return FrontierHlc(region) >= cut || watermark(region) >= LatestIssuedSeq();
  }

  // HLC stamp of the key's newest *stamp-known* write, provided that write
  // supersedes `version` (per-key versions are monotone, so its apply implies
  // the dependency's visibility). 0 when unknown — the caller falls back to a
  // per-dependency wait.
  uint64_t KnownHlc(std::string_view key, uint64_t version) const;

  // Event-driven wait on FrontierCovers(region, cut). Registers a waiter woken
  // by the NoteApply that first satisfies the condition; returns nullptr (and
  // leaves `cb` unconsumed) when already covered. The caller arms any deadline
  // timer itself: the first of apply-wake and timer to flip `fired` owns `cb`.
  struct FrontierWaiter {
    uint64_t cut = 0;
    std::atomic<bool> fired{false};
    std::function<void(Status)> cb;
  };
  std::shared_ptr<FrontierWaiter> AwaitFrontier(Region region, uint64_t cut,
                                                std::function<void(Status)>&& cb);

  // Frontier waiters currently registered at `region` (tests).
  size_t FrontierWaiterCount(Region region) const;

  // Number of keys resident in the per-key table (tests/benches).
  size_t KeyCount() const;

 private:
  struct KeyEntry {
    // Highest version of the key ever notified, and the sequence number and
    // HLC stamp of the write that produced it (0 when only NoteVisible saw
    // it). Paired updates happen under the shard lock.
    uint64_t latest_version = 0;
    uint64_t latest_seq = 0;
    uint64_t latest_hlc = 0;
    // Highest version directly observed visible per region.
    std::array<uint64_t, kNumRegions> visible{};
  };

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct StringEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, KeyEntry, StringHash, StringEq> keys;
  };

  // Tracks watermark advance for one region: seqs arrive out of order (per
  // key applies are ordered, cross-key they race), so the contiguous prefix
  // is recovered through `pending`, a min-heap of ⟨seq, hlc⟩ over a vector
  // that keeps its capacity — an out-of-order apply allocates nothing in the
  // steady state. Each seq carries one stamp, so a duplicate parked twice is
  // simply discarded when the prefix passes it. Frontier waiters live here
  // too — they are woken by the same advance that could satisfy them.
  struct SeqTracker {
    std::mutex mu;
    uint64_t next_expected = 1;
    std::vector<std::pair<uint64_t, uint64_t>> pending;  // heap, smallest seq on top
    std::vector<std::shared_ptr<FrontierWaiter>> frontier_waiters;
  };

  // 64-way striping (up from 16): NoteApply runs on every apply of every
  // store publishing here, so the per-key table is the cache's hottest map.
  static constexpr size_t kNumShards = 64;

  Shard& ShardFor(std::string_view key) const {
    return shards_[StringHash{}(key) % kNumShards];
  }

  std::string name_;
  std::array<bool, kNumRegions> tracked_{};
  RegionMask tracked_mask_ = 0;
  mutable std::array<Shard, kNumShards> shards_;
  mutable std::array<SeqTracker, kNumRegions> trackers_;
  std::array<std::atomic<uint64_t>, kNumRegions> watermarks_{};
  std::array<std::atomic<uint64_t>, kNumRegions> frontiers_{};
  std::atomic<uint64_t> issued_seq_{0};
  std::atomic<uint64_t> issued_hlc_{0};
};

// Registry of per-store visibility state, keyed by store name. Store names
// are global identifiers in Antipode (lineage dependencies reference stores
// by name), so one process-wide instance serves every barrier; private
// instances exist for benches that model synthetic stores.
//
// The registry is partitioned by region-group (DESIGN.md §13): a store lives
// in the bucket of its home group (RegionGroupOf of its replica footprint),
// so registrations and name lookups of one locality group never contend with
// another's — a US-group deployment churning stores cannot serialize SG-group
// pruning probes. Find does not know a store's footprint, so it probes the
// (few, uncontended) buckets in order.
class VisibilityCache {
 public:
  static VisibilityCache& Default();

  VisibilityCache() = default;
  VisibilityCache(const VisibilityCache&) = delete;
  VisibilityCache& operator=(const VisibilityCache&) = delete;

  // Registers (or re-registers) a store. Always starts cold: a re-created
  // store must never inherit visibility facts from a previous same-named
  // instance whose version counters restarted.
  std::shared_ptr<StoreVisibility> Register(const std::string& name,
                                            const std::vector<Region>& regions);

  // Removes `state` if it is still the registered instance for its name (a
  // newer same-named registration is left untouched).
  void Unregister(const std::shared_ptr<StoreVisibility>& state);

  // Current state for `name`; nullptr when unknown. Used by lineage pruning,
  // which resolves stores by name; barriers reach the state through their
  // shim instead (Shim::visibility()).
  std::shared_ptr<StoreVisibility> Find(std::string_view name) const;

  void Clear();
  size_t Size() const;

 private:
  struct Bucket {
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<StoreVisibility>, std::less<>> stores;
  };

  mutable std::array<Bucket, kNumRegionGroups> buckets_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_VISIBILITY_CACHE_H_
