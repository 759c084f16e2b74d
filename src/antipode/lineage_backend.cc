#include "src/antipode/lineage_backend.h"

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/antipode/enforcement_internal.h"
#include "src/common/property.h"
#include "src/common/small_vector.h"
#include "src/common/sim.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace antipode {
namespace {

using enforcement_internal::AllEnforced;
using enforcement_internal::CacheCounters;
using enforcement_internal::CacheInstruments;
using enforcement_internal::CountBarrier;
using enforcement_internal::CountScopedSkips;
using enforcement_internal::MemoizedOk;
using enforcement_internal::PrimaryRegion;
using enforcement_internal::WaitGather;

// Per-barrier trace bookkeeping shared by the per-dependency wait callbacks
// (which run on apply/timer threads) and the completion wrapper. Tracks which
// dependency stalled the longest — the barrier's critical path.
struct BarrierTraceState {
  uint64_t trace_id = 0;
  uint64_t barrier_span_id = 0;
  uint64_t parent_span_id = 0;
  TimePoint start{};
  Region region = Region::kLocal;

  std::mutex mu;
  double max_stall_ms = -1.0;
  std::string critical_store;
  std::string critical_key;

  void Observe(double stall_ms, const WriteId& dep) {
    std::lock_guard<std::mutex> lock(mu);
    if (stall_ms > max_stall_ms) {
      max_stall_ms = stall_ms;
      critical_store = dep.store;
      critical_key = dep.key;
    }
  }
};

// Opens trace state for one barrier invocation when tracing is on and the
// caller's request is part of a sampled trace; nullptr otherwise (the common,
// free case). Barrier spans are assembled manually because their waits start
// and finish on different threads.
std::shared_ptr<BarrierTraceState> MaybeStartBarrierTrace(Region region) {
  Tracer& tracer = Tracer::Default();
  if (!tracer.enabled()) {
    return nullptr;
  }
  const SpanContext parent = CurrentSpanContext();
  if (!parent.valid()) {
    return nullptr;
  }
  auto trace = std::make_shared<BarrierTraceState>();
  trace->trace_id = parent.trace_id;
  trace->barrier_span_id = tracer.NextSpanId();
  trace->parent_span_id = parent.span_id;
  trace->start = GlobalClock().Now();
  trace->region = region;
  return trace;
}

// Emits the "antipode/barrier" parent span once the fan-out has gathered,
// annotated with the dependency count, outcome, and critical path.
void FinishBarrierTrace(const BarrierTraceState& trace, size_t num_deps, const Status& status) {
  TraceEvent event;
  event.name = "antipode/barrier";
  event.category = "barrier";
  event.trace_id = trace.trace_id;
  event.span_id = trace.barrier_span_id;
  event.parent_span_id = trace.parent_span_id;
  event.region = trace.region;
  event.start = trace.start;
  event.end = GlobalClock().Now();
  event.annotations.emplace_back("deps", std::to_string(num_deps));
  event.annotations.emplace_back("status", std::string(StatusCodeName(status.code())));
  if (trace.max_stall_ms >= 0.0) {
    event.annotations.emplace_back("critical_path_store", trace.critical_store);
    event.annotations.emplace_back("critical_path_key", trace.critical_key);
    event.annotations.emplace_back("critical_stall_model_ms",
                                   std::to_string(trace.max_stall_ms));
  }
  Tracer::Default().Record(std::move(event));
}

// Emits one "barrier/wait" child span for a finished dependency wait.
void RecordWaitSpan(const BarrierTraceState& trace, const WriteId& dep, Region region,
                    TimePoint end, double stall_ms, const Status& status) {
  TraceEvent event;
  event.name = "barrier/wait";
  event.category = "barrier";
  event.trace_id = trace.trace_id;
  event.span_id = Tracer::Default().NextSpanId();
  event.parent_span_id = trace.barrier_span_id;
  event.region = region;
  event.start = trace.start;
  event.end = end;
  event.annotations.emplace_back("store", dep.store);
  event.annotations.emplace_back("key", dep.key);
  event.annotations.emplace_back("version", std::to_string(dep.version));
  event.annotations.emplace_back("stall_model_ms", std::to_string(stall_ms));
  event.annotations.emplace_back("status", std::string(StatusCodeName(status.code())));
  Tracer::Default().Record(std::move(event));
}

// Shared-pointer alias for the cache state a shim exposes; nullptr when the
// shim's store does not publish applies.
using VisibilityHandle = std::shared_ptr<StoreVisibility>;

// Fans asynchronous waits for the dependencies the visibility cache cannot
// prove visible, all sharing `deadline`. Cache-hit dependencies are filtered
// out up front; when everything hits, `done` fires synchronously with zero
// thread-pool, timer, or registry traffic (the `barrier.zero_wait` path).
// Misses are batched per ⟨shim, region⟩ through WaitManyAsync so one store's
// misses cost one deadline timer and one completion, not one per dependency.
//
// Returns non-Ok (and never calls `done`) only for the fail-fast path —
// a dependency on an unregistered store under strict resolution. Otherwise
// `done` fires exactly once, possibly synchronously for already-visible sets.
// `memoizable` (optional) reports whether an Ok outcome proves every
// dependency visible in the regions' local replicas — i.e. whether the caller
// may set the lineage's enforcement memo. False when an unknown store was
// skipped or a dependency needed a real wait through a shim whose wait does
// not imply local visibility (dynamo-style authority reads).
Status LaunchBarrierWaits(const Lineage& lineage, const std::vector<Region>& regions,
                          TimePoint deadline, const BarrierOptions& options,
                          std::function<void(Status)> done, bool* memoizable = nullptr) {
  if (memoizable != nullptr) {
    *memoizable = true;
  }
  // Dependencies are sorted, so each store's run is contiguous: one registry
  // lookup (and one cache-state fetch) per store, not per dependency. A
  // request's lineage spans a handful of stores, so the runs stay inline.
  struct StoreRun {
    Shim* shim = nullptr;
    VisibilityHandle vis;
    const WriteId* begin = nullptr;
    const WriteId* end = nullptr;
  };
  SmallVector<StoreRun, 4> runs;
  {
    Shim* shim = nullptr;
    VisibilityHandle vis;
    const std::string* current_store = nullptr;
    for (const auto& dep : lineage.deps()) {
      if (current_store == nullptr || dep.store != *current_store) {
        current_store = &dep.store;
        shim = options.registry->Lookup(dep.store);
        if (shim == nullptr && !options.ignore_unknown_stores) {
          return Status::FailedPrecondition("no shim registered for store: " + dep.store);
        }
        vis = shim != nullptr ? shim->visibility() : nullptr;
        if (shim == nullptr && memoizable != nullptr) {
          *memoizable = false;  // skipped dependency: outcome proves nothing about it
        }
        if (shim != nullptr) {
          runs.push_back(StoreRun{shim, vis, &dep, &dep + 1});
          continue;
        }
      }
      if (shim != nullptr) {
        runs.back().end = &dep + 1;
      }
    }
  }

  const Region primary = PrimaryRegion(regions);
  const TimePoint start = GlobalClock().Now();
  std::shared_ptr<BarrierTraceState> trace = MaybeStartBarrierTrace(primary);

  // Filter every ⟨region, dependency⟩ pair against the cache; survivors are
  // grouped per ⟨shim, region⟩ for one batched wait each. The WriteId copies
  // are required anyway: wait callbacks may outlive the lineage
  // (BarrierAsync) and the completion feeds the ids back into the cache.
  struct WaitGroup {
    Shim* shim = nullptr;
    VisibilityHandle vis;
    Region region = Region::kLocal;
    std::vector<WriteId> ids;
  };
  std::vector<WaitGroup> groups;
  size_t num_deps = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t scoped_skips = 0;
  for (Region region : regions) {
    for (const StoreRun& run : runs) {
      WaitGroup* group = nullptr;
      for (const WriteId* dep = run.begin; dep != run.end; ++dep) {
        ++num_deps;
        // Locality scope: a cleared bit means the dependency cannot need
        // enforcement at `region` (no replica there, or already proven
        // visible there), so no wait is armed and the cache is not probed.
        // Vacuously satisfied, so memoizability is unaffected.
        if (options.use_scope && (dep->scope & RegionBit(region)) == 0) {
          ++scoped_skips;
          continue;
        }
        if (options.use_cache) {
          if (run.vis != nullptr && run.vis->IsVisible(region, dep->key, dep->version)) {
            ++hits;
            continue;
          }
          ++misses;
        }
        if (group == nullptr) {
          groups.push_back(WaitGroup{run.shim, run.vis, region, {}});
          group = &groups.back();
          group->ids.reserve(static_cast<size_t>(run.end - dep));
          if (memoizable != nullptr && !run.shim->wait_implies_visibility()) {
            *memoizable = false;  // this wait succeeds via the authority, not the replica
          }
        }
        // The locality invariant at the wait-arming point: a scoped barrier
        // never issues a wait for a region the dependency's scope excludes.
        ANTIPODE_ALWAYS("barrier.scope_respected",
                        !options.use_scope || (dep->scope & RegionBit(region)) != 0);
        group->ids.push_back(*dep);
      }
    }
  }
  if (options.use_cache && (hits != 0 || misses != 0)) {
    const CacheInstruments& counters = CacheCounters();
    if (hits != 0) counters.hit->Increment(hits);
    if (misses != 0) counters.miss->Increment(misses);
  }
  CountScopedSkips(scoped_skips);

  auto finish = [primary, start, num_deps, deadline, trace, done = std::move(done)](Status status) {
    if (trace != nullptr) {
      FinishBarrierTrace(*trace, num_deps, status);
    }
    // In virtual time completion instants are exact, so a finite deadline is
    // honored with zero slack: the deadline timer claims every outstanding
    // wait at the deadline itself. (Not asserted on real threads, where a
    // loaded dispatcher can fire late without any logic being wrong.)
    if (SimScheduler::Active() != nullptr) {
      ANTIPODE_ALWAYS("barrier.deadline_honored",
                      deadline == TimePoint::max() || GlobalClock().Now() <= deadline);
    }
    ANTIPODE_SOMETIMES("barrier.deadline_exceeded",
                       status.code() == StatusCode::kDeadlineExceeded);
    CountBarrier(primary, status,
                 TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
                     GlobalClock().Now() - start)));
    done(status);
  };

  if (groups.empty()) {
    // Every dependency hit the cache (or the lineage resolved to nothing):
    // the barrier completes without touching a registry, timer, or pool.
    if (options.use_cache) {
      CacheCounters().zero_wait->Increment();
    }
    finish(Status::Ok());
    return Status::Ok();
  }

  const bool traced = trace != nullptr;
  const size_t waits =
      traced ? [&] {
        size_t n = 0;
        for (const WaitGroup& g : groups) n += g.ids.size();
        return n;
      }()
             : groups.size();
  auto gather = std::make_shared<WaitGather>(waits, std::move(finish));
  for (WaitGroup& group : groups) {
    // A wait that succeeded proves its ids visible at the region — feed that
    // back so the next barrier over the same lineage hits. Gated on the shim:
    // dynamo-style waits succeed via the authority, not the local replica.
    const bool feed_cache = group.vis != nullptr && group.shim->wait_implies_visibility();
    if (traced) {
      // Traced barriers keep the one-wait-per-dependency fan-out: each
      // dependency gets its own "barrier/wait" span and critical-path sample.
      const Region region = group.region;
      for (WriteId& id : group.ids) {
        group.shim->WaitAsync(
            region, id, deadline,
            [gather, trace, region, feed_cache, vis = group.vis, dep = id](Status status) {
              const TimePoint end = GlobalClock().Now();
              const double stall_ms = TimeScale::ToModelMillis(
                  std::chrono::duration_cast<Duration>(end - trace->start));
              trace->Observe(stall_ms, dep);
              RecordWaitSpan(*trace, dep, region, end, stall_ms, status);
              if (status.ok() && feed_cache) {
                vis->NoteVisible(region, dep.key, dep.version);
              }
              gather->Complete(status);
            });
      }
      continue;
    }
    const Region region = group.region;
    auto ids = std::make_shared<std::vector<WriteId>>(std::move(group.ids));
    group.shim->WaitManyAsync(region, *ids, deadline,
                              [gather, region, feed_cache, vis = group.vis, ids](Status status) {
                                if (status.ok() && feed_cache) {
                                  for (const WriteId& id : *ids) {
                                    vis->NoteVisible(region, id.key, id.version);
                                  }
                                }
                                gather->Complete(status);
                              });
  }
  return Status::Ok();
}

}  // namespace

Status LineageBarrierBackend::Launch(const Lineage& lineage, const std::vector<Region>& regions,
                                     TimePoint deadline, const BarrierOptions& options,
                                     std::function<void(Status)> done, bool* memoizable) {
  if (options.use_cache && AllEnforced(lineage, regions)) {
    if (PropertyRegistry::Instance().deep_checks()) {
      // The memo claims every dependency is already visible at every region;
      // re-probe each one (visibility is monotone, so the original proof must
      // still hold). A failure here is the memo lying — the one cache bug
      // that would silently break the paper's zero-violation claim.
      for (Region region : regions) {
        for (const auto& dep : lineage.deps()) {
          if (options.use_scope && (dep.scope & RegionBit(region)) == 0) {
            continue;
          }
          Shim* shim = options.registry->Lookup(dep.store);
          ANTIPODE_ALWAYS("barrier.memo_sound",
                          shim == nullptr || shim->IsVisible(region, dep));
        }
      }
    }
    if (memoizable != nullptr) {
      *memoizable = false;  // already memoized; nothing new proved
    }
    done(MemoizedOk(lineage, regions.size(), PrimaryRegion(regions)));
    return Status::Ok();
  }
  return LaunchBarrierWaits(lineage, regions, deadline, options, std::move(done), memoizable);
}

EnforcementBackend& LineageBackend() {
  static auto* backend = new LineageBarrierBackend();
  return *backend;
}

}  // namespace antipode
