// Pluggable enforcement strategies (DESIGN.md §12). A barrier entry point
// resolves one `EnforcementBackend` and delegates the actual wait plan to it;
// the entry points own only the call plumbing (dry-run, blocking latch /
// executor bounce, memoization of blocking successes). Launch never blocks
// its caller: every backend fans its waits out and gathers them.
//
// Two strategies ship in-tree:
//   * kLineage (`LineageBarrierBackend`) — Antipode's native plan: group the
//     lineage's dependencies by datastore, fan one batched wait per
//     ⟨store, region⟩ on the stores' replication watermarks, gather at one
//     shared deadline. Metadata cost O(|lineage|), wait cost max over exactly
//     the dependencies.
//   * kStableFrontier (`StableFrontierBackend`) — Okapi-style hybrid
//     stabilization: every write is stamped with a hybrid logical clock at
//     issue; each store region publishes an HLC apply frontier ("every write
//     stamped ≤ F has applied here"). A barrier folds its dependencies into
//     one HLC cut (the max dependency stamp) and waits for the involved
//     stores' frontiers to pass the cut — O(1) metadata and one wait per
//     ⟨store, region⟩ regardless of dependency count, at the price of also
//     waiting for unrelated writes stamped below the cut.

#ifndef SRC_ANTIPODE_ENFORCEMENT_H_
#define SRC_ANTIPODE_ENFORCEMENT_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/antipode/lineage.h"
#include "src/antipode/shim.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/net/region.h"

namespace antipode {

struct BarrierOptions {
  // Deadline policy for the whole barrier (every wait in it shares the one
  // effective deadline). First member so existing designated initializers
  // that start at `registry` keep compiling.
  WaitPolicy wait;
  ShimRegistry* registry = &ShimRegistry::Default();
  // Dependencies on datastores without a registered shim: skip them (true,
  // the incremental-deployment default) or fail the barrier (false).
  bool ignore_unknown_stores = true;
  // Inspect instead of enforce: return immediately with Ok when every
  // dependency is already visible, FailedPrecondition (listing the unmet
  // dependencies) otherwise. Never blocks. `BarrierDryRun` is the richer
  // structured form of the same probe.
  bool dry_run = false;
  // Probe the visibility cache before issuing any wait: dependencies the
  // cache proves visible are skipped, and a barrier whose dependencies all
  // hit returns Ok with zero thread-pool, timer, or registry traffic
  // (`barrier.zero_wait`). Sound because visibility is monotone — a hit can
  // never be invalidated (DESIGN.md §8). Off is the measurable baseline.
  bool use_cache = true;
  // Honor each dependency's locality scope (WriteId::scope): waits and
  // frontier cuts are armed only for ⟨store, region⟩ pairs the scope still
  // names, so a barrier at US never blocks on — or even probes — SG-only
  // replication state (DESIGN.md §13). Skipped pairs count in
  // `barrier.scoped_skip`. Sound because a cleared scope bit means the write
  // either has no replica at that region (nothing readable there) or was
  // already proven visible there; off is the measurable unscoped baseline.
  bool use_scope = true;
  // Which enforcement strategy serves this barrier. kInherit resolves the
  // registry's `default_backend`, so deployments flip strategy in one place
  // and individual call sites can still pin one explicitly.
  EnforcementBackendKind backend = EnforcementBackendKind::kInherit;

  // The single absolute bound every wait in the barrier shares.
  TimePoint EffectiveDeadline() const { return wait.EffectiveDeadline(); }
};

// One enforcement strategy. Stateless; the two in-tree implementations are
// process-wide singletons reached through `ResolveBackend`.
class EnforcementBackend {
 public:
  virtual ~EnforcementBackend() = default;

  // Stable label carried on `barrier.backend` metrics and bench output.
  virtual std::string_view name() const = 0;

  // Enforces `lineage` at every region in `regions`, bounded by `deadline`.
  // Returns non-Ok (and never calls `done`) only for fail-fast launch errors
  // (a dependency on an unregistered store under strict resolution);
  // otherwise `done` fires exactly once — possibly synchronously — with the
  // barrier outcome. Backends own their cache probing, zero-wait fast paths,
  // and `barrier.*` instrumentation so the two strategies are measured
  // identically.
  //
  // `memoizable` (optional) is written before `done` can fire: true iff an
  // Ok outcome proves every dependency visible in the regions' local
  // replicas — i.e. whether the caller may set the lineage's enforcement
  // memo. Backends that memoize internally report false.
  virtual Status Launch(const Lineage& lineage, const std::vector<Region>& regions,
                        TimePoint deadline, const BarrierOptions& options,
                        std::function<void(Status)> done, bool* memoizable) = 0;
};

// Process-wide strategy singletons.
EnforcementBackend& LineageBackend();
EnforcementBackend& FrontierBackend();

// The backend `options` selects: the explicit `options.backend` when set,
// otherwise the registry's `default_backend` (kInherit there means lineage).
EnforcementBackend& ResolveBackend(const BarrierOptions& options);

// Bytes of enforcement metadata a request must carry for `lineage` under
// `kind`: the serialized lineage for kLineage, one varint-encoded HLC cut for
// kStableFrontier. The bench's metadata-vs-wait-time axis.
size_t EnforcementMetadataBytes(EnforcementBackendKind kind, const Lineage& lineage);

}  // namespace antipode

#endif  // SRC_ANTIPODE_ENFORCEMENT_H_
