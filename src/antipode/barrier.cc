#include "src/antipode/barrier.h"

#include <memory>
#include <utility>

#include "src/antipode/enforcement_internal.h"
#include "src/antipode/lineage_api.h"
#include "src/common/property.h"
#include "src/common/sim.h"
#include "src/obs/metrics.h"

namespace antipode {
namespace {

using enforcement_internal::CacheCounters;
using enforcement_internal::CountBackendDispatch;

// Non-blocking dry-run folded into the standard barrier entry points: maps
// the structured BarrierDryRunResult onto the Status vocabulary.
Status DryRunStatus(const Lineage& lineage, Region region, const BarrierOptions& options) {
  const BarrierDryRunResult result =
      BarrierDryRun(lineage, region, options.registry, options.use_cache, options.use_scope);
  if (!result.unresolved.empty() && !options.ignore_unknown_stores) {
    return Status::FailedPrecondition("no shim registered for store: " +
                                      result.unresolved.front().store);
  }
  if (result.unmet.empty()) {
    return Status::Ok();
  }
  std::string detail = "barrier dry-run: unmet dependencies:";
  for (const auto& dep : result.unmet) {
    detail += " " + dep.ToString();
  }
  return Status::FailedPrecondition(std::move(detail));
}

// Blocking core shared by Barrier/BarrierGlobal: waits on the backend's
// completion, then records the enforcement memo when the backend proved it
// sound. Backends bound their own completion by the deadline, so the wait
// itself is unbounded; only a quiescent simulation can leave it unset, which
// is a genuine enforcement deadlock and is surfaced as such.
Status RunBlocking(EnforcementBackend& backend, const Lineage& lineage,
                   const std::vector<Region>& regions, const BarrierOptions& options) {
  auto done = std::make_shared<Completion<Status>>();
  bool memoizable = false;
  Status launched = backend.Launch(
      lineage, regions, options.EffectiveDeadline(), options,
      [done](Status status) { done->Set(std::move(status)); }, &memoizable);
  if (!launched.ok()) {
    return launched;
  }
  if (!done->WaitUntil(TimePoint::max())) {
    return Status::DeadlineExceeded("barrier never completed (simulation quiescent)");
  }
  Status status = done->Take();
  if (status.ok() && memoizable && options.use_cache) {
    for (Region region : regions) {
      lineage.MarkEnforced(region);
    }
  }
  return status;
}

EnforcementBackend& DispatchBackend(const BarrierOptions& options) {
  EnforcementBackend& backend = ResolveBackend(options);
  CountBackendDispatch(&backend == &FrontierBackend() ? EnforcementBackendKind::kStableFrontier
                                                      : EnforcementBackendKind::kLineage);
  return backend;
}

}  // namespace

Status Barrier(const Lineage& lineage, Region region, const BarrierOptions& options) {
  if (options.dry_run) {
    return DryRunStatus(lineage, region, options);
  }
  return RunBlocking(DispatchBackend(options), lineage, {region}, options);
}

Status BarrierCtx(Region region, const BarrierOptions& options) {
  auto lineage = LineageApi::Current();
  if (!lineage.has_value()) {
    return Status::Ok();
  }
  return Barrier(*lineage, region, options);
}

Status BarrierGlobal(const Lineage& lineage, const std::vector<Region>& regions,
                     const BarrierOptions& options) {
  if (options.dry_run) {
    for (Region region : regions) {
      Status status = DryRunStatus(lineage, region, options);
      if (!status.ok()) {
        return status;
      }
    }
    return Status::Ok();
  }
  return RunBlocking(DispatchBackend(options), lineage, regions, options);
}

void BarrierAsync(Lineage lineage, Region region, ThreadPool* executor,
                  std::function<void(Status)> done, const BarrierOptions& options) {
  if (options.dry_run) {
    Status status = DryRunStatus(lineage, region, options);
    if (!executor->Submit([done, status] { done(status); })) {
      done(status);
    }
    return;
  }
  EnforcementBackend& backend = DispatchBackend(options);
  // Event-driven: no thread blocks while dependencies replicate; the gather
  // bounces the result onto `executor` so `done` never runs on a timer or
  // apply thread. A finite deadline cancels outstanding waits, so `done` is
  // guaranteed to fire by then even if a dependency never arrives.
  const TimePoint deadline = options.EffectiveDeadline();
  auto finish = std::make_shared<std::function<void(Status)>>(
      [executor, done = std::move(done)](Status status) {
        if (!executor->Submit([done, status] { done(status); })) {
          done(status);  // executor shut down: deliver inline
        }
      });
  Status launched =
      backend.Launch(lineage, {region}, deadline, options,
                     [finish](Status status) { (*finish)(std::move(status)); }, nullptr);
  if (!launched.ok()) {
    (*finish)(launched);
  }
}

BarrierDryRunResult BarrierDryRun(const Lineage& lineage, Region region, ShimRegistry* registry,
                                  bool use_cache, bool use_scope) {
  BarrierDryRunResult result;
  if (use_cache && lineage.enforced_at(region)) {
    // A past barrier proved every dependency visible in this region's local
    // replicas; IsVisible shares that semantics, so the probes would all pass.
    if (PropertyRegistry::Instance().deep_checks()) {
      // Re-probe what the memo claims: a false-positive memo here would let
      // a barrier skip a wait it still owed. Visibility is monotone, so any
      // probe the original barrier passed must still pass.
      for (const auto& dep : lineage.deps()) {
        if (use_scope && (dep.scope & RegionBit(region)) == 0) {
          continue;
        }
        Shim* shim = registry->Lookup(dep.store);
        ANTIPODE_ALWAYS("barrier.memo_sound", shim == nullptr || shim->IsVisible(region, dep));
      }
    }
    if (!lineage.Empty()) {
      CacheCounters().hit->Increment(lineage.Size());
    }
    return result;
  }
  uint64_t scoped_skips = 0;
  for (const auto& dep : lineage.deps()) {
    // A dependency whose locality scope excludes this region is vacuously met
    // here — the checker does not even resolve its shim, mirroring the
    // enforcing backends.
    if (use_scope && (dep.scope & RegionBit(region)) == 0) {
      ++scoped_skips;
      continue;
    }
    Shim* shim = registry->Lookup(dep.store);
    if (shim == nullptr) {
      result.unresolved.push_back(dep);
      result.consistent = false;
      continue;
    }
    std::shared_ptr<StoreVisibility> vis = use_cache ? shim->visibility() : nullptr;
    if (vis != nullptr && vis->IsVisible(region, dep.key, dep.version)) {
      CacheCounters().hit->Increment();
      continue;
    }
    if (use_cache) {
      CacheCounters().miss->Increment();
    }
    if (!shim->IsVisible(region, dep)) {
      result.unmet.push_back(dep);
      result.consistent = false;
      continue;
    }
    // IsVisible is local-replica semantics for every shim (dynamo included),
    // so a positive probe can always feed the cache.
    if (vis != nullptr) {
      vis->NoteVisible(region, dep.key, dep.version);
    }
  }
  enforcement_internal::CountScopedSkips(scoped_skips);
  // Consistent ⇒ every dependency resolved and probed visible locally, which
  // is exactly the enforcement memo's meaning.
  if (use_cache && result.consistent) {
    lineage.MarkEnforced(region);
  }
  return result;
}

}  // namespace antipode
