// Per-store visibility state (DESIGN.md §8): the read-mostly fast path in
// front of every barrier wait, owned by the ReplicatedStore it describes.
//
// "Is ⟨key, version⟩ visible at region r" is answered by the store that
// applied the write: IsVisible reads the key's record under the store's own
// shard lock (one comparison against the record's slot for r), so the
// record is the only per-key visibility fact. Visibility is monotone — once
// a version is applied at a region it stays applied — so a hit can never be
// invalidated, and a miss is always safe: the caller falls back to the real
// wait.
//
// What the record cannot answer in O(1) is the per-⟨store, region⟩ view this
// class tracks itself:
//   * the apply low-watermark over the store's write sequence numbers:
//     W(r) = highest S such that every write with seq ≤ S has applied at r;
//   * the *stabilization frontier* feeding the stable-frontier encoding
//     (DESIGN.md §12): each apply carries the write's HLC stamp, so alongside
//     W(r) the tracker publishes F(r) — the stamp of the newest write in the
//     applied contiguous prefix. Stamps are monotone in sequence numbers
//     (ReplicatedStore stamps both under one lock), so F(r) ≥ c proves every
//     write stamped ≤ c has applied at r. `AwaitFrontier` registers
//     event-driven waiters on that condition; they are woken from the same
//     NoteApply calls that advance the watermark.

#ifndef SRC_STORE_STORE_VISIBILITY_H_
#define SRC_STORE_STORE_VISIBILITY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/region.h"

namespace antipode {

class ReplicatedStore;

// Thread-safe; all methods may race freely with each other. Writers
// (NoteIssued/NoteApply) only ever raise watermarks and frontiers, so a stale
// read yields a miss, never a false hit.
class StoreVisibility {
 public:
  // `store` is the store whose records the per-key queries read; it must
  // outlive this object (a store owns its own).
  explicit StoreVisibility(const ReplicatedStore& store) : store_(store) {}

  StoreVisibility(const StoreVisibility&) = delete;
  StoreVisibility& operator=(const StoreVisibility&) = delete;

  // --- per-key queries (the store's record) ---------------------------------

  // True iff ⟨key, version⟩ (or a newer version of the key) has applied at
  // `region`. A region without a replica never hits. False means "not yet",
  // never "never" — callers fall back to the real wait/probe.
  bool IsVisible(Region region, std::string_view key, uint64_t version) const;

  // HLC stamp of the key's newest write, provided that write supersedes
  // `version` (per-key versions are monotone, so its apply implies the
  // dependency's visibility). 0 when the store holds no such write — the
  // caller falls back to a per-dependency wait.
  uint64_t StampCovering(std::string_view key, uint64_t version) const;

  // --- per-⟨store, region⟩ tracker -------------------------------------------

  // A write was stamped at its origin with the store's dense write sequence
  // number `seq`. Called by ReplicatedStore::Put under the same lock that
  // assigns seq and HLC stamp (so issued order equals stamp order — the
  // caught-up rule below depends on it).
  void NoteIssued(uint64_t seq) { issued_seq_.store(seq, std::memory_order_release); }

  // The write with per-store sequence number `seq` and HLC stamp `hlc`
  // applied at `region`. Called by ReplicatedStore for every apply (local and
  // replicated), exactly once per ⟨seq, region⟩, after the key's record
  // shows it. `hlc` may be 0 for unstamped writes; the watermark still
  // advances, only the frontier stays put.
  void NoteApply(Region region, uint64_t seq, uint64_t hlc = 0);

  // Apply low-watermark of `region`: every write with seq ≤ watermark has
  // applied there. 0 until the first in-order apply.
  uint64_t watermark(Region region) const {
    return watermarks_[RegionIndex(region)].load(std::memory_order_acquire);
  }

  // F(region): HLC stamp of the newest write in the region's applied
  // contiguous prefix. Every write stamped ≤ F(region) has applied there
  // (stamps are monotone in seq). 0 until the first stamped in-order apply.
  uint64_t FrontierHlc(Region region) const {
    return frontiers_[RegionIndex(region)].load(std::memory_order_acquire);
  }

  // True iff this store cannot be hiding a write stamped ≤ `cut` from
  // `region`: either the frontier has passed the cut, or the region has
  // applied everything the store ever issued (the caught-up rule — an idle
  // store must not stall global stabilization; any write it issues later is
  // stamped after the cut because stamps are process-wide monotone).
  bool FrontierCovers(Region region, uint64_t cut) const {
    return FrontierHlc(region) >= cut ||
           watermark(region) >= issued_seq_.load(std::memory_order_acquire);
  }

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
                                                std::function<void(Status)>&& cb) const;

  // Frontier waiters currently registered at `region` (tests).
  size_t FrontierWaiterCount(Region region) const;

 private:
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

  const ReplicatedStore& store_;
  mutable std::array<SeqTracker, kNumRegions> trackers_;
  std::array<std::atomic<uint64_t>, kNumRegions> watermarks_{};
  std::array<std::atomic<uint64_t>, kNumRegions> frontiers_{};
  std::atomic<uint64_t> issued_seq_{0};
};

}  // namespace antipode

#endif  // SRC_STORE_STORE_VISIBILITY_H_
