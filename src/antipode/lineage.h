// Lineage: the set of datastore write identifiers a request's execution tree
// has accumulated (paper §4.1, §6.1). Lineages travel alongside requests (in
// the request-context baggage) and alongside data values (written by shims
// into the underlying datastore), and are what `barrier` enforces.
//
// The dependency set is deliberately small: it is truncated when a lineage
// ends (`stop`, or simply the end of the request) and only crosses lineage
// boundaries through an explicit `transfer` (§5.1).
//
// Representation: a flat vector kept sorted by ⟨store, key, version⟩ with at
// most one entry per ⟨store, key⟩. Lineages stay under ~200 bytes (paper
// §7.4), so a contiguous vector beats a node-based set on every hot path —
// append, transfer, serialize — by avoiding per-element allocations.

#ifndef SRC_ANTIPODE_LINEAGE_H_
#define SRC_ANTIPODE_LINEAGE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/antipode/write_id.h"
#include "src/common/small_vector.h"
#include "src/common/status.h"

namespace antipode {

class ShimRegistry;

class Lineage {
 public:
  // Inline slots sized for the common request: most calibrated call graphs
  // accumulate a handful of *distinct* ⟨store, key⟩ pairs before compaction,
  // so typical lineages never touch the heap (DESIGN.md §14).
  using DepVector = SmallVector<WriteId, 4>;

  Lineage() = default;
  explicit Lineage(uint64_t id) : id_(id) {}

  // The enforcement memo is a per-object cache of a monotone fact, so copies
  // and moves carry it along (same dependency set ⇒ same facts).
  Lineage(const Lineage& other)
      : id_(other.id_),
        deps_(other.deps_),
        enforced_(other.enforced_.load(std::memory_order_acquire)) {}
  Lineage& operator=(const Lineage& other) {
    id_ = other.id_;
    deps_ = other.deps_;
    enforced_.store(other.enforced_.load(std::memory_order_acquire),
                    std::memory_order_release);
    return *this;
  }
  Lineage(Lineage&& other) noexcept
      : id_(other.id_),
        deps_(std::move(other.deps_)),
        enforced_(other.enforced_.load(std::memory_order_acquire)) {}
  Lineage& operator=(Lineage&& other) noexcept {
    id_ = other.id_;
    deps_ = std::move(other.deps_);
    enforced_.store(other.enforced_.load(std::memory_order_acquire),
                    std::memory_order_release);
    return *this;
  }

  // Identifier of the root action this lineage stems from (0 = anonymous).
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

  // Dependency-set operations (Table 2 append / remove / transfer).
  //
  // Append compacts: versions are per-key monotonic, so visibility of a
  // newer version of the same ⟨store, key⟩ implies visibility of every older
  // one — keeping only the highest version per key is lossless for barrier
  // and keeps lineages small on linchpin objects that are written repeatedly.
  // The dependency's locality scope (WriteId::scope, derived by the shim from
  // the owning store's replica set) rides along: a version raise adopts the
  // newer write's scope, an equal-version re-append intersects, and a zero
  // incoming scope is normalized to all-ones ("unknown").
  void Append(WriteId dep);
  void Remove(const WriteId& dep);
  // Folds `other`'s dependencies into this lineage (with the same per-key
  // compaction), explicitly establishing cross-lineage transitivity. Locality
  // scopes intersect at equal versions (both masks over-approximate where
  // enforcement is still needed); a version conflict keeps the winner's scope.
  void Transfer(const Lineage& other);

  // Enforcement memo (DESIGN.md §8): bit r set ⇒ some past barrier verified
  // every current dependency visible in region r's local replicas. Visibility
  // is monotone and the dependency set is immutable between mutations, so the
  // fact can never go stale — a repeat barrier over this lineage at r is O(1).
  // Adding dependencies (Append/Transfer) clears the memo; removing them
  // (Remove/Prune) keeps it, since a verified superset covers any subset.
  // Only set by barriers whose every wait implies local-replica visibility
  // (dynamo-style authority waits do not memoize), so dry-run probes may
  // trust it too.
  bool enforced_at(Region region) const {
    return (enforced_.load(std::memory_order_acquire) >> RegionIndex(region)) & 1u;
  }
  void MarkEnforced(Region region) const {
    enforced_.fetch_or(static_cast<uint8_t>(1u << RegionIndex(region)),
                       std::memory_order_acq_rel);
  }

  bool Contains(const WriteId& dep) const;
  bool Empty() const { return deps_.empty(); }
  size_t Size() const { return deps_.size(); }
  // Sorted by ⟨store, key, version⟩; dependencies of one store are contiguous.
  const DepVector& deps() const { return deps_; }

  // Dependencies belonging to one datastore (what a shim's `wait` enforces).
  std::vector<WriteId> DepsForStore(const std::string& store) const;

  bool operator==(const Lineage& other) const { return id_ == other.id_ && deps_ == other.deps_; }

  // Wire encoding — its size is the "lineage metadata size" the paper
  // reports (≤200 B in DeathStarBench, ≈200 B average on Alibaba graphs).
  // Distinct store names are interned into a front table and dependencies
  // reference them by index: an application has a handful of datastores
  // shared by many services, so deep-graph lineages (20–60 deps) stop paying
  // the store string once per dependency.
  std::string Serialize() const;
  // Appends the wire encoding to `out` (exactly WireSize() bytes) — the
  // single-buffer path Install/FrameValue use with a reused scratch string.
  void SerializeTo(std::string& out) const;
  static Result<Lineage> Deserialize(std::string_view data);
  // Computed arithmetically; always equals Serialize().size().
  size_t WireSize() const;

  std::string ToString() const;

 private:
  // Compacts deps_ in place (see shim.h).
  friend size_t PruneVisibleEverywhere(Lineage& lineage, const ShimRegistry& registry);

  uint64_t id_ = 0;
  DepVector deps_;
  // Bitmask over RegionIndex; mutable because it is a memo of externally
  // observable state, not part of the lineage's value (operator== ignores it).
  mutable std::atomic<uint8_t> enforced_{0};
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_LINEAGE_H_
