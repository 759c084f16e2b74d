#include "src/antipode/lineage.h"

#include <algorithm>
#include <tuple>

#include "src/common/serialization.h"

namespace antipode {
namespace {

// Orders by ⟨store, key⟩ only — the compaction invariant guarantees at most
// one version per pair, so this is the lookup order for Append/Transfer.
bool StoreKeyLess(const WriteId& a, const WriteId& b) {
  return std::tie(a.store, a.key) < std::tie(b.store, b.key);
}

bool SameStoreKey(const WriteId& a, const WriteId& b) {
  return a.store == b.store && a.key == b.key;
}

}  // namespace

void Lineage::Append(WriteId dep) {
  if (dep.scope == 0) {
    // Zero would claim "needs enforcement nowhere" — a caller that cleared
    // every bit meant "unknown", so normalize to the conservative default
    // (also keeps the no-zero-scope wire invariant).
    dep.scope = kAllRegionsMask;
  }
  auto it = std::lower_bound(deps_.begin(), deps_.end(), dep, StoreKeyLess);
  if (it != deps_.end() && SameStoreKey(*it, dep)) {
    if (it->version < dep.version) {
      it->version = dep.version;
      it->scope = dep.scope;  // a newer write restarts from its store's scope
      enforced_.store(0, std::memory_order_release);  // newer version unverified
    } else if (it->version == dep.version) {
      // Same write seen twice: each mask over-approximates where enforcement
      // may still be needed, so the intersection is sound. Never narrows to
      // zero silently — a write enforced everywhere is simply droppable, but
      // Append is not a pruning point, so keep the broader claim instead.
      const RegionMask both = it->scope & dep.scope;
      it->scope = both != 0 ? both : it->scope;
    }
    return;
  }
  deps_.insert(it, std::move(dep));
  enforced_.store(0, std::memory_order_release);
}

void Lineage::Remove(const WriteId& dep) {
  auto it = std::lower_bound(deps_.begin(), deps_.end(), dep);
  if (it != deps_.end() && *it == dep) {
    deps_.erase(it);
  }
}

bool Lineage::Contains(const WriteId& dep) const {
  return std::binary_search(deps_.begin(), deps_.end(), dep);
}

void Lineage::Transfer(const Lineage& other) {
  if (other.deps_.empty()) {
    return;
  }
  if (deps_.empty()) {
    deps_ = other.deps_;
    enforced_.store(other.enforced_.load(std::memory_order_acquire),
                    std::memory_order_release);
    return;
  }
  // The union is enforced at a region only where both inputs were: every
  // merged dependency (at its max version) comes from one of the two.
  enforced_.fetch_and(other.enforced_.load(std::memory_order_acquire),
                      std::memory_order_acq_rel);
  // Linear merge of two sorted, per-key-compacted runs.
  DepVector merged;
  merged.reserve(deps_.size() + other.deps_.size());
  auto a = deps_.begin();
  auto b = other.deps_.begin();
  while (a != deps_.end() && b != other.deps_.end()) {
    if (SameStoreKey(*a, *b)) {
      WriteId dep = *a;
      if (a->version == b->version) {
        // Same write from two lineages: both masks are sound
        // over-approximations, so intersect — but keep at least one claim
        // (see Append) rather than emitting a zero scope.
        const RegionMask both = a->scope & b->scope;
        dep.scope = both != 0 ? both : a->scope;
      } else if (a->version < b->version) {
        dep.version = b->version;
        dep.scope = b->scope;  // the winning (newer) write carries its scope
      }
      merged.push_back(std::move(dep));
      ++a;
      ++b;
    } else if (StoreKeyLess(*a, *b)) {
      merged.push_back(*a++);
    } else {
      merged.push_back(*b++);
    }
  }
  merged.insert(merged.end(), a, deps_.end());
  merged.insert(merged.end(), b, other.deps_.end());
  deps_ = std::move(merged);
}

std::vector<WriteId> Lineage::DepsForStore(const std::string& store) const {
  // Store runs are contiguous in the sorted vector.
  auto lo = std::lower_bound(deps_.begin(), deps_.end(), store,
                             [](const WriteId& dep, const std::string& s) { return dep.store < s; });
  auto hi = lo;
  while (hi != deps_.end() && hi->store == store) {
    ++hi;
  }
  return std::vector<WriteId>(lo, hi);
}

std::string Lineage::Serialize() const {
  std::string out;
  out.reserve(WireSize());
  SerializeTo(out);
  return out;
}

void Lineage::SerializeTo(std::string& out) const {
  out.reserve(out.size() + WireSize());
  AppendVarint(out, id_);
  // Interned store table: deps_ is sorted by ⟨store, key⟩, so distinct
  // stores form contiguous runs in sorted order — one pass counts them, one
  // emits them, and the table is canonically sorted for free. Dependencies
  // then reference their store by table index (a single-byte varint for any
  // realistic datastore count) instead of repeating the name.
  size_t num_stores = 0;
  const std::string* prev = nullptr;
  for (const auto& dep : deps_) {
    if (prev == nullptr || dep.store != *prev) {
      prev = &dep.store;
      ++num_stores;
    }
  }
  AppendVarint(out, num_stores);
  prev = nullptr;
  for (const auto& dep : deps_) {
    if (prev == nullptr || dep.store != *prev) {
      prev = &dep.store;
      AppendLengthPrefixed(out, dep.store);
    }
  }
  AppendVarint(out, deps_.size());
  prev = nullptr;
  size_t index = 0;
  for (const auto& dep : deps_) {
    if (prev != nullptr && dep.store != *prev) {
      ++index;
    }
    prev = &dep.store;
    AppendVarint(out, index);
    AppendLengthPrefixed(out, dep.key);
    AppendVarint(out, dep.version);
    // Locality scope rides the lineage wire (not WriteId's own encoding,
    // which other call sites use scope-free): one varint — always a single
    // byte, since the mask fits kNumRegions bits — after each dependency.
    AppendVarint(out, dep.scope);
  }
}

size_t Lineage::WireSize() const {
  size_t n = VarintWireSize(id_) + VarintWireSize(deps_.size());
  size_t num_stores = 0;
  size_t index = 0;
  const std::string* prev = nullptr;
  for (const auto& dep : deps_) {
    if (prev == nullptr || dep.store != *prev) {
      if (prev != nullptr) {
        ++index;
      }
      prev = &dep.store;
      ++num_stores;
      n += VarintWireSize(dep.store.size()) + dep.store.size();
    }
    n += VarintWireSize(index) + VarintWireSize(dep.key.size()) + dep.key.size() +
         VarintWireSize(dep.version) + VarintWireSize(dep.scope);
  }
  n += VarintWireSize(num_stores);
  return n;
}

Result<Lineage> Lineage::Deserialize(std::string_view data) {
  Deserializer d(data);
  auto id = d.ReadVarint();
  if (!id.ok()) {
    return Status::InvalidArgument("lineage wire truncated in id: " +
                                   std::string(id.status().message()));
  }
  auto store_count = d.ReadVarint();
  if (!store_count.ok()) {
    return Status::InvalidArgument("lineage wire truncated in store table size: " +
                                   std::string(store_count.status().message()));
  }
  // Each table entry costs at least its one-byte length prefix, which bounds
  // a trustworthy reserve even when the count is adversarial garbage.
  if (*store_count > d.Remaining()) {
    return Status::InvalidArgument("lineage wire store table size " +
                                   std::to_string(*store_count) + " exceeds remaining payload");
  }
  // Views into `data`: each name is copied once per dependency that uses it
  // (WriteId owns its store), never into an intermediate table.
  SmallVector<std::string_view, 4> stores;
  stores.reserve(*store_count);
  for (uint64_t i = 0; i < *store_count; ++i) {
    auto store = d.ReadView();
    if (!store.ok()) {
      return Status::InvalidArgument("lineage wire truncated in store table entry " +
                                     std::to_string(i) + " of " + std::to_string(*store_count) +
                                     ": " + std::string(store.status().message()));
    }
    // Serialize interns stores in sorted first-appearance order over a
    // sorted dependency vector, so the table is strictly increasing; an
    // unsorted or duplicated entry marks a corrupt or foreign wire.
    if (!stores.empty() && !(stores.back() < *store)) {
      return Status::InvalidArgument("lineage wire store table not canonical at entry " +
                                     std::to_string(i) + " (\"" + std::string(*store) + "\")");
    }
    stores.push_back(*store);
  }
  auto count = d.ReadVarint();
  if (!count.ok()) {
    return Status::InvalidArgument("lineage wire truncated in dependency count: " +
                                   std::string(count.status().message()));
  }
  Lineage lineage(*id);
  // Every serialized dependency is >= 4 bytes (a store index, a key length
  // prefix, a version, and a scope), which bounds the reserve like above.
  lineage.deps_.reserve(std::min<uint64_t>(*count, d.Remaining() / 4 + 1));
  uint64_t prev_index = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto index = d.ReadVarint();
    if (!index.ok()) {
      return Status::InvalidArgument("lineage wire truncated in store index of dependency " +
                                     std::to_string(i) + " of " + std::to_string(*count) + ": " +
                                     std::string(index.status().message()));
    }
    if (*index >= *store_count) {
      return Status::InvalidArgument("lineage wire store index " + std::to_string(*index) +
                                     " at dependency " + std::to_string(i) +
                                     " is outside the " + std::to_string(*store_count) +
                                     "-entry store table");
    }
    // Canonical index sequence: starts at 0 and advances by at most one —
    // anything else means the dependency runs are unsorted across stores or
    // the table carries entries no dependency references.
    if (i == 0 ? *index != 0 : (*index != prev_index && *index != prev_index + 1)) {
      return Status::InvalidArgument("lineage wire not canonical: store index " +
                                     std::to_string(*index) + " at dependency " +
                                     std::to_string(i) + " after index " +
                                     std::to_string(prev_index));
    }
    auto key = d.ReadView();
    if (!key.ok()) {
      // A short read is a framing error of the lineage blob, not a range
      // problem of one field — report it as such, with position context.
      return Status::InvalidArgument("lineage wire truncated at dependency " +
                                     std::to_string(i) + " of " + std::to_string(*count) + ": " +
                                     std::string(key.status().message()));
    }
    auto version = d.ReadVarint();
    if (!version.ok()) {
      return Status::InvalidArgument("lineage wire truncated in version of dependency " +
                                     std::to_string(i) + " of " + std::to_string(*count) + ": " +
                                     std::string(version.status().message()));
    }
    auto scope = d.ReadVarint();
    if (!scope.ok()) {
      return Status::InvalidArgument("lineage wire truncated in region scope of dependency " +
                                     std::to_string(i) + " of " + std::to_string(*count) + ": " +
                                     std::string(scope.status().message()));
    }
    WriteId dep{std::string(stores[*index]), std::string(*key), *version};
    // A scope must name at least one real region: zero claims "enforce
    // nowhere" (such a dependency is never serialized — it is pruned), and
    // bits beyond kNumRegions would round-trip into masks no barrier can
    // interpret. Both mark a corrupt or foreign wire.
    if (*scope == 0) {
      return Status::InvalidArgument("lineage wire has zero region scope at dependency " +
                                     std::to_string(i) + " (" + dep.ToString() + ")");
    }
    if ((*scope & ~static_cast<uint64_t>(kAllRegionsMask)) != 0) {
      return Status::InvalidArgument(
          "lineage wire region scope " + std::to_string(*scope) + " at dependency " +
          std::to_string(i) + " has bits beyond the " + std::to_string(kNumRegions) +
          " known regions");
    }
    dep.scope = static_cast<RegionMask>(*scope);
    // Our own Serialize emits deps strictly sorted by ⟨store, key⟩ with one
    // version per pair, which is what lets this loop append directly instead
    // of re-running the O(log n) compaction probe per element. Anything
    // unsorted or duplicated is therefore a corrupt or foreign wire —
    // rejected, not silently repaired: repairing would let a malformed blob
    // round-trip into a "valid" lineage that other replicas decode
    // differently than this one intended. (Cross-store order is already
    // pinned by the index sequence; within a store the keys must climb.)
    if (*index == prev_index && !lineage.deps_.empty() &&
        !(lineage.deps_.back().key < dep.key)) {
      const bool duplicate = lineage.deps_.back().key == dep.key;
      return Status::InvalidArgument(
          std::string("lineage wire not canonical: ") +
          (duplicate ? "duplicate ⟨store, key⟩ pair " : "out-of-order dependency ") +
          dep.ToString() + " at index " + std::to_string(i));
    }
    prev_index = *index;
    lineage.deps_.push_back(std::move(dep));
  }
  if (*count == 0 ? *store_count != 0 : prev_index + 1 != *store_count) {
    return Status::InvalidArgument("lineage wire store table has unreferenced entries (" +
                                   std::to_string(*store_count) + " stores, " +
                                   std::to_string(*count) + " dependencies)");
  }
  if (d.Remaining() != 0) {
    return Status::InvalidArgument("lineage wire has " + std::to_string(d.Remaining()) +
                                   " trailing bytes after " + std::to_string(*count) +
                                   " dependencies");
  }
  return lineage;
}

std::string Lineage::ToString() const {
  std::string out = "Lineage{id=" + std::to_string(id_) + ", deps=[";
  bool first = true;
  for (const auto& dep : deps_) {
    if (!first) {
      out += ", ";
    }
    out += dep.ToString();
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace antipode
