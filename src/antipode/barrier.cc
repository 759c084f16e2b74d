#include "src/antipode/barrier.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "src/antipode/lineage_api.h"
#include "src/common/hlc.h"
#include "src/common/property.h"
#include "src/common/serialization.h"
#include "src/common/sim.h"
#include "src/common/small_vector.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace antipode {
namespace {

// --- Instruments -----------------------------------------------------------

// Racing initializers store identical registry pointers, atomically for TSan.
struct BarrierInstruments {
  std::atomic<Counter*> calls{nullptr};
  std::atomic<Counter*> errors{nullptr};
  std::atomic<Counter*> deadline{nullptr};
  std::atomic<HistogramMetric*> stall{nullptr};
};

// Barrier throughput/latency metrics (barrier.calls / errors /
// deadline_exceeded / stall_model_ms), cached per region.
void CountBarrier(Region region, const Status& status, double stall_model_ms) {
  static BarrierInstruments per_region[kNumRegions];
  BarrierInstruments& slot = per_region[RegionIndex(region)];
  Counter* calls = slot.calls.load(std::memory_order_acquire);
  Counter* errors = slot.errors.load(std::memory_order_acquire);
  Counter* deadline = slot.deadline.load(std::memory_order_acquire);
  HistogramMetric* stall = slot.stall.load(std::memory_order_acquire);
  if (calls == nullptr) {
    MetricsRegistry& registry = MetricsRegistry::Default();
    const std::string region_name(RegionName(region));
    calls = registry.GetCounter("barrier.calls", {{"region", region_name}});
    errors = registry.GetCounter("barrier.errors", {{"region", region_name}});
    deadline = registry.GetCounter("barrier.deadline_exceeded", {{"region", region_name}});
    stall = registry.GetHistogram("barrier.stall_model_ms", {{"region", region_name}});
    slot.calls.store(calls, std::memory_order_release);
    slot.errors.store(errors, std::memory_order_release);
    slot.deadline.store(deadline, std::memory_order_release);
    slot.stall.store(stall, std::memory_order_release);
  }
  calls->Increment();
  if (!status.ok()) {
    errors->Increment();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      deadline->Increment();
    }
  }
  stall->Record(stall_model_ms);
}

// barrier.backend{backend=...} dispatch counter, cached per encoding.
void CountBackendDispatch(EnforcementBackendKind kind) {
  static std::array<std::atomic<Counter*>, 2> per_kind{};
  const size_t slot = kind == EnforcementBackendKind::kStableFrontier ? 1 : 0;
  Counter* counter = per_kind[slot].load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = MetricsRegistry::Default().GetCounter(
        "barrier.backend", {{"backend", std::string(EnforcementBackendKindName(kind))}});
    per_kind[slot].store(counter, std::memory_order_release);
  }
  counter->Increment();
}

// barrier.scoped_skip — ⟨dependency, region⟩ pairs a barrier skipped because
// the dependency's locality scope excluded the region (options.use_scope).
void CountScopedSkips(uint64_t n) {
  if (n == 0) {
    return;
  }
  static Counter* const counter = MetricsRegistry::Default().GetCounter("barrier.scoped_skip");
  counter->Increment(n);
}

// Visibility-cache outcome counters. Process-global (not per region): the
// cache itself is region-aware, the hit rate is one number operators watch.
struct CacheInstruments {
  Counter* hit;
  Counter* miss;
  Counter* zero_wait;
};

const CacheInstruments& CacheCounters() {
  static const CacheInstruments counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Default();
    return CacheInstruments{registry.GetCounter("barrier.cache_hit"),
                            registry.GetCounter("barrier.cache_miss"),
                            registry.GetCounter("barrier.zero_wait")};
  }();
  return counters;
}

// frontier.lag_ms{region=...}: how far (in model ms of physical HLC time) a
// cut sits ahead of the region's stabilization frontier at launch — the extra
// wait the cut encoding signs up for relative to already-stable state.
// Sampled once per launched cut wait; cold frontiers (no stamped apply yet,
// F = 0) are skipped rather than charged the whole process uptime.
void RecordFrontierLag(Region region, uint64_t cut, uint64_t frontier) {
  if (frontier == 0) {
    return;
  }
  static std::atomic<HistogramMetric*> per_region[kNumRegions] = {};
  HistogramMetric* lag = per_region[RegionIndex(region)].load(std::memory_order_acquire);
  if (lag == nullptr) {
    lag = MetricsRegistry::Default().GetHistogram(
        "frontier.lag_ms", {{"region", std::string(RegionName(region))}});
    per_region[RegionIndex(region)].store(lag, std::memory_order_release);
  }
  const uint64_t cut_us = HlcClock::PhysicalMicros(cut);
  const uint64_t frontier_us = HlcClock::PhysicalMicros(frontier);
  const uint64_t lag_us = cut_us > frontier_us ? cut_us - frontier_us : 0;
  lag->Record(TimeScale::ToModelMillis(Duration(lag_us)));
}

// --- Tracing ---------------------------------------------------------------

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

// --- The enforcement engine ------------------------------------------------

// Join point for a fan-out of asynchronous waits: counts completions, keeps
// the first error, fires `done` exactly once when the last wait lands.
class WaitGather {
 public:
  WaitGather(size_t outstanding, std::function<void(Status)> done)
      : outstanding_(outstanding), done_(std::move(done)) {}

  void Complete(const Status& status) {
    std::function<void(Status)> fire;
    Status result;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!status.ok() && first_error_.ok()) {
        first_error_ = status;
      }
      if (--outstanding_ > 0) {
        return;
      }
      fire = std::move(done_);
      result = first_error_;
    }
    fire(result);
  }

 private:
  std::mutex mu_;
  size_t outstanding_;
  Status first_error_ = Status::Ok();
  std::function<void(Status)> done_;
};

// The encoding `options` selects, counted on barrier.backend: the explicit
// `options.backend` when set, otherwise the registry's `default_backend`
// (kInherit there means lineage).
EnforcementBackendKind DispatchKind(const BarrierOptions& options) {
  EnforcementBackendKind kind = options.backend;
  if (kind == EnforcementBackendKind::kInherit) {
    kind = options.registry->options().default_backend;
  }
  if (kind != EnforcementBackendKind::kStableFrontier) {
    kind = EnforcementBackendKind::kLineage;
  }
  CountBackendDispatch(kind);
  return kind;
}

// True when `lineage` carries the enforcement memo for every region in
// `regions` (Lineage::enforced_at): some prior barrier already proved every
// dependency visible there, and visibility is monotone.
bool AllEnforced(const Lineage& lineage, std::span<const Region> regions) {
  for (Region region : regions) {
    if (!lineage.enforced_at(region)) {
      return false;
    }
  }
  return true;
}

// Under deep checks, re-probes what the enforcement memo claims: every
// in-scope dependency must still be visible at every region (visibility is
// monotone, so the original proof must still hold). A failure here is the
// memo lying — the one cache bug that would let a barrier skip a wait it
// still owed and silently break the paper's zero-violation claim.
void CheckMemoSound(const Lineage& lineage, std::span<const Region> regions,
                    ShimRegistry& registry, bool use_scope) {
  if (!PropertyRegistry::Instance().deep_checks()) {
    return;
  }
  for (Region region : regions) {
    for (const auto& dep : lineage.deps()) {
      if (use_scope && (dep.scope & RegionBit(region)) == 0) {
        continue;
      }
      Shim* shim = registry.Lookup(dep.store);
      ANTIPODE_ALWAYS("barrier.memo_sound", shim == nullptr || shim->IsVisible(region, dep));
    }
  }
}

// Enforces `lineage` at every region in `regions`, bounded by `deadline`,
// under the encoding `options` selects.
//
// Dependencies the memo or the store's record probe prove visible are filtered
// out up front; when everything hits, `done` fires synchronously with zero
// thread-pool, timer, or registry traffic (the `barrier.zero_wait` path).
// Each remaining miss is waited for in one of two encodings, chosen per
// dependency by its HLC stamp:
//   * stamp 0 (every dependency under kLineage; under kStableFrontier, those
//     on stores without a frontier or with no stamped write covering them)
//     — exact: the store's misses at a region batch into one WaitManyAsync,
//     so one store costs one deadline timer and one completion;
//   * stamp > 0 — cut: the store's misses at a region fold into one frontier
//     wait on the max stamp (the scoped per-region max under use_scope, the
//     one lineage-wide cut otherwise). Sound because stamps are monotone in
//     each store's sequence numbers and process-wide (one HlcClock), so a
//     frontier past the cut proves every write stamped below it applied.
// Cut waits are armed before the exact batches.
//
// Returns non-Ok (and never calls `done`) only for the fail-fast path — a
// dependency on an unregistered store under strict resolution. Otherwise
// `done` fires exactly once, possibly synchronously. `memoizable` (optional)
// is written before `done` can fire: true iff an Ok outcome proves every
// dependency visible in the regions' local replicas — false when an unknown
// store was skipped, the memo already held, or an exact wait went through a
// shim whose wait does not imply local visibility (dynamo-style authority
// reads).
Status LaunchEnforcement(const Lineage& lineage, const std::vector<Region>& regions,
                         TimePoint deadline, const BarrierOptions& options,
                         std::function<void(Status)> done, bool* memoizable) {
  const EnforcementBackendKind kind = DispatchKind(options);
  if (memoizable != nullptr) {
    *memoizable = true;
  }
  // The region metrics attribute to: the first requested one, kLocal for an
  // empty (trivially satisfied) request.
  const Region primary = regions.empty() ? Region::kLocal : regions.front();
  if (options.use_cache && AllEnforced(lineage, regions)) {
    CheckMemoSound(lineage, regions, *options.registry, options.use_scope);
    if (memoizable != nullptr) {
      *memoizable = false;  // already memoized; nothing new proved
    }
    // The dependencies count as cache hits so the hit-rate arithmetic stays
    // coherent with the probe path.
    const CacheInstruments& counters = CacheCounters();
    if (!lineage.Empty()) {
      counters.hit->Increment(lineage.Size() * regions.size());
    }
    counters.zero_wait->Increment();
    CountBarrier(primary, Status::Ok(), 0.0);
    done(Status::Ok());
    return Status::Ok();
  }

  // Dependencies are sorted, so each store's run is contiguous: one registry
  // lookup (and one visibility-state fetch) per store, not per dependency. A
  // request's lineage spans a handful of stores, so the runs stay inline.
  // Under kStableFrontier a run on a frontier store also reads each
  // dependency's stamp once, into `stamps` (index = position in the lineage).
  struct StoreRun {
    Shim* shim = nullptr;
    const StoreVisibility* vis = nullptr;
    const WriteId* begin = nullptr;
    const WriteId* end = nullptr;
    uint64_t* stamps = nullptr;  // parallel to [begin, end); nullptr: all 0
  };
  SmallVector<StoreRun, 4> runs;
  std::vector<uint64_t> stamps;
  if (kind == EnforcementBackendKind::kStableFrontier) {
    stamps.resize(lineage.Size());
  }
  uint64_t cut = 0;  // max stamp over the whole lineage: the unscoped cut
  {
    Shim* shim = nullptr;
    const std::string* current_store = nullptr;
    for (const auto& dep : lineage.deps()) {
      if (current_store == nullptr || dep.store != *current_store) {
        current_store = &dep.store;
        shim = options.registry->Lookup(dep.store);
        if (shim == nullptr && !options.ignore_unknown_stores) {
          return Status::FailedPrecondition("no shim registered for store: " + dep.store);
        }
        if (shim == nullptr) {
          if (memoizable != nullptr) {
            *memoizable = false;  // skipped dependency: outcome proves nothing about it
          }
          continue;
        }
        const StoreVisibility* vis = shim->visibility();
        uint64_t* run_stamps = nullptr;
        if (!stamps.empty() && vis != nullptr && shim->SupportsFrontier()) {
          run_stamps = &stamps[&dep - lineage.deps().data()];
        }
        runs.push_back(StoreRun{shim, vis, &dep, &dep, run_stamps});
      }
      if (shim == nullptr) {
        continue;
      }
      StoreRun& run = runs.back();
      if (run.stamps != nullptr) {
        const uint64_t hlc = run.vis->StampCovering(dep.key, dep.version);
        run.stamps[&dep - run.begin] = hlc;
        cut = std::max(cut, hlc);
      }
      run.end = &dep + 1;
    }
  }

  const TimePoint start = GlobalClock().Now();
  std::shared_ptr<BarrierTraceState> trace = MaybeStartBarrierTrace(primary);

  // Filter every ⟨region, dependency⟩ pair against the scope and the record
  // probe; survivors join their ⟨store, region⟩'s exact batch or cut.
  struct ExactGroup {
    Shim* shim = nullptr;
    Region region = Region::kLocal;
    std::vector<WriteId> ids;
  };
  struct CutWait {
    Shim* shim = nullptr;
    const StoreVisibility* vis = nullptr;
    Region region = Region::kLocal;
    uint64_t cut = 0;
  };
  std::vector<ExactGroup> groups;
  std::vector<CutWait> cut_waits;
  size_t num_deps = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t scoped_skips = 0;
  for (Region region : regions) {
    for (const StoreRun& run : runs) {
      ExactGroup* group = nullptr;
      uint64_t region_cut = 0;
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
        const uint64_t stamp = run.stamps != nullptr ? run.stamps[dep - run.begin] : 0;
        if (stamp != 0) {
          region_cut = std::max(region_cut, stamp);
          continue;
        }
        if (group == nullptr) {
          groups.push_back(ExactGroup{run.shim, region, {}});
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
      // The scoped cut folds only in-scope stamps that missed the cache here,
      // so a US-bound barrier never waits for a frontier to pass stamps that
      // only matter elsewhere. Unscoped barriers keep the one lineage-wide
      // cut — the encoding's classic O(1) shape.
      if (region_cut != 0) {
        cut_waits.push_back(
            CutWait{run.shim, run.vis, region, options.use_scope ? region_cut : cut});
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

  if (groups.empty() && cut_waits.empty()) {
    // Every dependency hit the cache (or the lineage resolved to nothing):
    // the barrier completes without touching a registry, timer, or pool.
    if (options.use_cache) {
      CacheCounters().zero_wait->Increment();
    }
    finish(Status::Ok());
    return Status::Ok();
  }

  // Traced barriers fan the exact batches out one wait per dependency, so
  // each gets its own "barrier/wait" span and critical-path sample.
  const bool traced = trace != nullptr;
  size_t waits = cut_waits.size() + groups.size();
  if (traced) {
    waits = cut_waits.size();
    for (const ExactGroup& group : groups) waits += group.ids.size();
  }
  auto gather = std::make_shared<WaitGather>(waits, std::move(finish));
  for (const CutWait& wait : cut_waits) {
    RecordFrontierLag(wait.region, wait.cut, wait.vis->FrontierHlc(wait.region));
    wait.shim->WaitFrontierAsync(wait.region, wait.cut, deadline,
                                 [gather](Status status) { gather->Complete(status); });
  }
  // A successful wait needs no feedback: it completed because the store's
  // record shows the write, which is what the next probe reads.
  for (ExactGroup& group : groups) {
    const Region region = group.region;
    if (traced) {
      for (WriteId& id : group.ids) {
        group.shim->WaitAsync(region, id, deadline,
                              [gather, trace, region, dep = id](Status status) {
                                const TimePoint end = GlobalClock().Now();
                                const double stall_ms = TimeScale::ToModelMillis(
                                    std::chrono::duration_cast<Duration>(end - trace->start));
                                trace->Observe(stall_ms, dep);
                                RecordWaitSpan(*trace, dep, region, end, stall_ms, status);
                                gather->Complete(status);
                              });
      }
      continue;
    }
    // `ids` need only outlive the call: shims copy what they keep.
    group.shim->WaitManyAsync(region, group.ids, deadline,
                              [gather](Status status) { gather->Complete(status); });
  }
  return Status::Ok();
}

// --- Entry points ----------------------------------------------------------

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

// Blocking core shared by Barrier/BarrierGlobal: waits on the engine's
// completion, then records the enforcement memo when the engine proved it
// sound. The engine bounds its own completion by the deadline, so the wait
// itself is unbounded; only a quiescent simulation can leave it unset, which
// is a genuine enforcement deadlock and is surfaced as such.
Status RunBlocking(const Lineage& lineage, const std::vector<Region>& regions,
                   const BarrierOptions& options) {
  auto done = std::make_shared<Completion<Status>>();
  bool memoizable = false;
  Status launched = LaunchEnforcement(
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

}  // namespace

size_t EnforcementMetadataBytes(EnforcementBackendKind kind, const Lineage& lineage) {
  if (kind == EnforcementBackendKind::kStableFrontier) {
    // One varint HLC cut per request, independent of the dependency count.
    // Sized against the clock's current reading — what a cut computed now
    // would cost on the wire.
    return VarintWireSize(HlcClock::Default().Last());
  }
  return lineage.WireSize();
}

Status Barrier(const Lineage& lineage, Region region, const BarrierOptions& options) {
  if (options.dry_run) {
    return DryRunStatus(lineage, region, options);
  }
  return RunBlocking(lineage, {region}, options);
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
  return RunBlocking(lineage, regions, options);
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
      LaunchEnforcement(lineage, {region}, deadline, options,
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
    CheckMemoSound(lineage, {&region, 1}, *registry, use_scope);
    if (!lineage.Empty()) {
      CacheCounters().hit->Increment(lineage.Size());
    }
    return result;
  }
  uint64_t scoped_skips = 0;
  for (const auto& dep : lineage.deps()) {
    // A dependency whose locality scope excludes this region is vacuously met
    // here — the checker does not even resolve its shim, mirroring the
    // enforcing engine.
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
    const StoreVisibility* vis = use_cache ? shim->visibility() : nullptr;
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
    }
  }
  CountScopedSkips(scoped_skips);
  // Consistent ⇒ every dependency resolved and probed visible locally, which
  // is exactly the enforcement memo's meaning.
  if (use_cache && result.consistent) {
    lineage.MarkEnforced(region);
  }
  return result;
}

}  // namespace antipode
