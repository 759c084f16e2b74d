// barrier(ℒ): blocks until every write identifier in the lineage is visible
// at the caller's region (paper §6.3). Variants: timeout, asynchronous
// (callback once dependencies are visible), and dry-run — the passive
// consistency checker that reports which dependencies *would* have blocked,
// used to discover barrier placements during development.
//
// Region-local by default: visibility is enforced only at the caller's
// replica (the geo-replication optimization of §6.3); `BarrierGlobal` waits
// at an explicit set of regions instead.
//
// Every entry point runs the one enforcement engine (barrier.cc): dependencies
// are grouped by datastore, filtered by locality scope and each store's
// record probe (the visibility fast path), and the misses are waited for at a single shared deadline — the
// barrier costs the *maximum* of the outstanding waits, never their sum.
// `BarrierOptions::backend` (src/antipode/enforcement.h) picks how a store's
// misses are encoded: as exact ⟨key, version⟩ dependencies batched per
// ⟨store, region⟩, or as one HLC stabilization cut per ⟨store, region⟩. See
// DESIGN.md "Barrier execution model" and §12 "Enforcement encodings".

#ifndef SRC_ANTIPODE_BARRIER_H_
#define SRC_ANTIPODE_BARRIER_H_

#include <functional>
#include <vector>

#include "src/antipode/enforcement.h"
#include "src/antipode/lineage.h"
#include "src/antipode/shim.h"
#include "src/common/thread_pool.h"

namespace antipode {

// Blocks until all of `lineage`'s dependencies are visible at `region`. The
// wait is a `Completion` (src/common/sim.h): in simulation it pumps virtual
// time until the engine completes instead of parking the thread.
Status Barrier(const Lineage& lineage, Region region, const BarrierOptions& options = {});

// Barrier on the current request context's lineage (no-op when none).
Status BarrierCtx(Region region, const BarrierOptions& options = {});

// Enforces visibility at every region in `regions` (global enforcement — the
// expensive alternative the region-local optimization avoids). In parallel
// mode the fan-out covers every ⟨region, dependency⟩ pair at once.
Status BarrierGlobal(const Lineage& lineage, const std::vector<Region>& regions,
                     const BarrierOptions& options = {});

// Asynchronous barrier: returns immediately; `done` runs on `executor` once
// the dependencies are visible (or the deadline cancels the waits).
void BarrierAsync(Lineage lineage, Region region, ThreadPool* executor,
                  std::function<void(Status)> done, const BarrierOptions& options = {});

// Dry-run (§6.3): inspects visibility without blocking. `unmet` lists
// dependencies that are not yet visible at `region` — each one is a
// potential XCY violation a real barrier would have prevented; `unresolved`
// lists dependencies whose datastore has no registered shim. Deliberately
// encoding-independent: the probe asks the shims' IsVisible directly, so the
// checker's verdicts mean the same thing whichever encoding enforces.
// `use_scope` mirrors BarrierOptions::use_scope: dependencies whose locality
// scope excludes `region` are vacuously met and are not probed at all.
struct BarrierDryRunResult {
  bool consistent = true;
  std::vector<WriteId> unmet;
  std::vector<WriteId> unresolved;
};
BarrierDryRunResult BarrierDryRun(const Lineage& lineage, Region region,
                                  ShimRegistry* registry = &ShimRegistry::Default(),
                                  bool use_cache = true, bool use_scope = true);

}  // namespace antipode

#endif  // SRC_ANTIPODE_BARRIER_H_
