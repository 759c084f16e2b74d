// Shim base interface. A shim interposes a datastore's client API to
// (1) propagate lineages alongside data values and (2) implement the
// datastore-specific `wait` visibility primitive barrier relies on (§6.3).
// Typed read/write methods live on the concrete shims, since their
// signatures track the underlying datastore's data model (Table 2 note).

#ifndef SRC_ANTIPODE_SHIM_H_
#define SRC_ANTIPODE_SHIM_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/antipode/lineage.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/net/region.h"
#include "src/store/store_visibility.h"

namespace antipode {

class Shim {
 public:
  virtual ~Shim() = default;

  // Name of the datastore this shim fronts; write identifiers carrying this
  // name resolve to this shim at barrier time.
  virtual const std::string& store_name() const = 0;

  // Blocks until `id` (or a newer version of its key) is visible at
  // `region`. Datastore-specific: most stores wait on a replication
  // watermark; DynamoDB's shim uses strongly consistent reads (§6.4).
  virtual Status Wait(Region region, const WriteId& id, Duration timeout) = 0;

  // Invoked exactly once with the outcome of an asynchronous wait.
  using WaitCallback = std::function<void(Status)>;

  // Asynchronous `wait`: `done` fires once `id` is visible at `region` (Ok)
  // or once `deadline` passes (DeadlineExceeded) — whichever comes first.
  // Barriers fan their waits out and gather, so every dependency shares the
  // same deadline instead of a dwindling per-dep budget. Shims whose store
  // exposes an event-driven watermark never park a thread per dependency.
  virtual void WaitAsync(Region region, const WriteId& id, TimePoint deadline,
                         WaitCallback done) = 0;

  // Batched asynchronous `wait`: `done` fires exactly once — Ok when every
  // id in `ids` is visible at `region`, or the first error (in practice
  // DeadlineExceeded) otherwise. Barriers group a store's missed dependencies
  // into one call so replicated-store shims can register them as a single
  // batch (one deadline timer, one completion) instead of a waiter fan-out.
  //
  // The default adapter fans out to WaitAsync and gathers, so every shim gets
  // the batched surface for free. `ids` only needs to stay valid for the
  // duration of the call (implementations copy what they keep).
  virtual void WaitManyAsync(Region region, std::span<const WriteId> ids, TimePoint deadline,
                             WaitCallback done);

  // Visibility state of the replicated store this shim fronts, or nullptr
  // for shims over anything else (foreign shims). The barrier fast path
  // probes its record-backed IsVisible before creating any waiter.
  virtual const StoreVisibility* visibility() const { return nullptr; }

  // Whether a successful Wait/WaitAsync at `region` implies ⟨key, version⟩ is
  // visible in the region's local replica. True for watermark-style shims;
  // false for shims that satisfy `wait` another way (DynamoDB's strong reads
  // hit the authority, §6.4) — their wait completions must not set a
  // lineage's enforcement memo, or dry-run probes (which are local-replica
  // semantics) trusting it would lie.
  virtual bool wait_implies_visibility() const { return true; }

  // Non-blocking visibility probe. This is the one documented boolean
  // surface: barrier's dry-run mode and the consistency checker use it; every
  // blocking/async wait reports through Status instead.
  virtual bool IsVisible(Region region, const WriteId& id) = 0;

  // Whether this shim can serve stabilization-frontier waits — true for
  // watermark-style shims whose store publishes an HLC-stamped apply frontier
  // (StoreVisibility::FrontierHlc). The stable-frontier backend only issues
  // WaitFrontierAsync against shims that return true; dependencies on other
  // shims fall back to per-dependency waits.
  virtual bool SupportsFrontier() const { return false; }

  // Waits until `region`'s stabilization frontier covers `cut_hlc` — every
  // write this store stamped at or before the cut has applied there — or the
  // deadline passes. `done` fires exactly once. The default rejects with
  // Unimplemented; shims that return true from SupportsFrontier override it.
  virtual void WaitFrontierAsync(Region region, uint64_t cut_hlc, TimePoint deadline,
                                 WaitCallback done);

  // Locality scope this shim stamps onto the dependencies it appends — the
  // store's replica footprint (DESIGN.md §13). All-ones ("may need
  // enforcement anywhere") is the safe default for shims that cannot tell;
  // watermark shims narrow it to the store's configured regions so barriers
  // skip ⟨store, region⟩ pairs the write can never be read from.
  virtual RegionMask region_scope() const { return kAllRegionsMask; }

  // The WriteId for a write this shim just performed, scope pre-stamped.
  WriteId MakeWriteId(std::string key, uint64_t version) const {
    return WriteId{store_name(), std::move(key), version, region_scope()};
  }

 protected:
  // Shared executor for shims that poll (DynamoShim's probe loop). Lazily
  // constructed, intentionally leaked at process exit.
  static ThreadPool& BlockingWaitPool();
};

// Which enforcement strategy a barrier dispatches through (DESIGN.md §12).
enum class EnforcementBackendKind : uint8_t {
  // Resolve from the registry's `default_backend` (the per-call default, so
  // deployments flip strategy in one place).
  kInherit = 0,
  // Antipode's native strategy: per-dependency waits on replication
  // watermarks, grouped by store, gathered at one shared deadline.
  kLineage,
  // Okapi-style hybrid stabilization: compute one HLC cut covering the
  // lineage and wait for each target region's stable frontier to pass it —
  // O(1) wait metadata per barrier instead of O(|deps|) waits, at the cost
  // of waiting for unrelated writes below the cut.
  kStableFrontier,
};

std::string_view EnforcementBackendKindName(EnforcementBackendKind kind);

// ShimRegistry construction knobs.
struct ShimRegistryOptions {
  // Label carried on the registry's metrics ("default" for the process-wide
  // instance, "test"/"bench" for private ones).
  std::string name = "default";
  // Re-registering a store name: replace the shim silently (true, the
  // historical behaviour — deployments swap shims at startup) or reject with
  // AlreadyExists (false, catches accidental double registration in tests).
  bool allow_replace = true;
  // Strategy used by barriers whose BarrierOptions leave `backend` at
  // kInherit. kInherit here means kLineage (the native strategy).
  EnforcementBackendKind default_backend = EnforcementBackendKind::kLineage;
};

// Maps datastore names to shims so barrier can resolve the write identifiers
// in a lineage without end-to-end knowledge of the application.
class ShimRegistry {
 public:
  using Options = ShimRegistryOptions;

  ShimRegistry() = default;
  explicit ShimRegistry(Options options) : options_(std::move(options)) {}

  // A process-wide default registry.
  static ShimRegistry& Default();

  // Ok on success; AlreadyExists when the name is taken and the registry was
  // built with `allow_replace = false`. Callers that register at startup may
  // ignore the result (the default registry always replaces).
  Status Register(Shim* shim);
  void Unregister(const std::string& store_name);
  Shim* Lookup(const std::string& store_name) const;
  void Clear();
  std::vector<std::string> RegisteredStores() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Shim*> shims_;
};

// Drops every dependency of `lineage` whose shim in `registry` probes it
// visible at *every* region of the shim's scope (its store's replica
// footprint). Sound because such a dependency can never block any barrier
// anywhere — barriers only wait on invisible writes, and visibility is
// monotone — so removing it changes no barrier's outcome, only the bytes the
// lineage drags through baggage and shim-framed values (the §7.4 metadata
// size). Dependencies on stores with no shim in `registry` are kept.
// Surviving dependencies have their locality scope narrowed region by
// region — bits clear where the store has no replica or the write already
// probes visible — and a scope narrowed to zero is the per-dependency form of
// "visible everywhere", so the dependency drops. Returns the number pruned
// (also accumulated in the `lineage.pruned_deps` metric).
//
// Opt-in (a caller prunes before LineageApi::Install or Serialize) rather
// than automatic: tests and debugging tooling legitimately inspect lineages
// for writes that have long replicated.
size_t PruneVisibleEverywhere(Lineage& lineage, const ShimRegistry& registry);

}  // namespace antipode

#endif  // SRC_ANTIPODE_SHIM_H_
