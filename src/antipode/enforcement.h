// Barrier options and the enforcement-metadata cost model (DESIGN.md §12).
//
// Every barrier entry point (src/antipode/barrier.h) runs one enforcement
// engine: group the lineage's dependencies by datastore, drop the ⟨dep,
// region⟩ pairs the dependency's locality scope excludes, probe each store's
// records for visibility, arm the remaining waits under one shared deadline
// and gather them. `BarrierOptions::backend` selects only how a store's probe
// misses are encoded for waiting:
//   * kLineage — exact dependencies: one batched wait per ⟨store, region⟩
//     on the stores' replication watermarks for exactly the missed
//     ⟨key, version⟩ pairs (paper §6.3). Metadata O(|lineage|), wait cost
//     the max over exactly the dependencies.
//   * kStableFrontier — an HLC cut, as in Okapi's hybrid stabilization:
//     every write is stamped with a hybrid logical clock at issue, and each
//     store region publishes an apply frontier ("every write stamped ≤ F has
//     applied here"). A store whose shim supports frontiers folds its missed
//     dependencies into one cut per ⟨store, region⟩ and waits for the
//     frontier to pass it — O(1) metadata, at the price of also waiting for
//     unrelated writes stamped below the cut. Dependencies without a known
//     stamp keep their exact wait.

#ifndef SRC_ANTIPODE_ENFORCEMENT_H_
#define SRC_ANTIPODE_ENFORCEMENT_H_

#include <cstddef>

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
  // Probe each store's records (and the lineage's enforcement memo) before
  // issuing any wait: dependencies proven visible are skipped, and a barrier
  // whose dependencies all hit returns Ok with zero thread-pool, timer, or
  // registry traffic (`barrier.zero_wait`). Sound because visibility is
  // monotone — a hit can never be invalidated (DESIGN.md §8). Off is the
  // measurable baseline.
  bool use_cache = true;
  // Honor each dependency's locality scope (WriteId::scope): waits and
  // frontier cuts are armed only for ⟨store, region⟩ pairs the scope still
  // names, so a barrier at US never blocks on — or even probes — SG-only
  // replication state (DESIGN.md §13). Skipped pairs count in
  // `barrier.scoped_skip`. Sound because a cleared scope bit means the write
  // either has no replica at that region (nothing readable there) or was
  // already proven visible there; off is the measurable unscoped baseline.
  bool use_scope = true;
  // How the barrier encodes the dependencies it waits for (exact deps or an
  // HLC cut, see above). kInherit resolves the registry's `default_backend`,
  // so deployments flip encoding in one place and individual call sites can
  // still pin one explicitly.
  EnforcementBackendKind backend = EnforcementBackendKind::kInherit;

  // The single absolute bound every wait in the barrier shares.
  TimePoint EffectiveDeadline() const { return wait.EffectiveDeadline(); }
};

// Bytes of enforcement metadata a request must carry for `lineage` under
// `kind`: the serialized lineage for kLineage, one varint-encoded HLC cut for
// kStableFrontier. The bench's metadata-vs-wait-time axis.
size_t EnforcementMetadataBytes(EnforcementBackendKind kind, const Lineage& lineage);

}  // namespace antipode

#endif  // SRC_ANTIPODE_ENFORCEMENT_H_
