#include "src/store/replicated_store.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/common/hlc.h"
#include "src/common/property.h"
#include "src/common/sim.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace antipode {

ObjectPool<EntryBlock>& EntryBlockPool() {
  // Intentionally leaked, like TimerService::Shared: blocks released by late
  // callbacks (after any particular store died) always land somewhere valid.
  static auto* pool = new ObjectPool<EntryBlock>(/*slab_size=*/64);
  return *pool;
}

ReplicatedStore::KeyRecord& ReplicatedStore::RecordFor(Shard& shard, std::string_view key) {
  auto it = shard.records.find(key);
  if (it == shard.records.end()) {
    it = shard.records.emplace(std::string(key), KeyRecord{}).first;
  }
  return it->second;
}

bool ReplicatedStore::InstallLocked(KeyRecord& record, Region region, const EntryHandle& handle,
                                    std::vector<std::shared_ptr<Waiter>>& due) {
  const uint64_t version = handle->version;
  if (record.VersionAt(region) >= version) {
    // Heal replays and redeliveries are expected to race fresh applies;
    // the sweep must actually exercise this arm.
    ANTIPODE_REACHABLE("store.stale_replay_ignored");
    return false;
  }
  record.applied[static_cast<size_t>(RegionIndex(region))] = handle;
  auto keep = record.waiters.begin();
  for (auto& waiter : record.waiters) {
    if (waiter->fired.load(std::memory_order_acquire)) {
      continue;  // abandoned; drop it
    }
    if (waiter->region == region && version >= waiter->version &&
        !waiter->fired.exchange(true, std::memory_order_acq_rel)) {
      due.push_back(std::move(waiter));
      continue;
    }
    *keep++ = std::move(waiter);
  }
  record.waiters.erase(keep, record.waiters.end());
  return true;
}

void ReplicatedStore::WakeDue(Region region, uint64_t version,
                              std::vector<std::shared_ptr<Waiter>>& due) const {
  // Thundering-herd accounting: a per-region notify_all would have woken
  // every resident waiter of the region; the records wake only `due`.
  std::atomic<uint64_t>& resident = (*resident_waiters_)[static_cast<size_t>(RegionIndex(region))];
  applies_.fetch_add(1, std::memory_order_relaxed);
  waiters_notified_.fetch_add(due.size(), std::memory_order_relaxed);
  notify_all_wakeups_.fetch_add(resident.load(std::memory_order_relaxed) + due.size(),
                                std::memory_order_relaxed);
  resident.fetch_sub(due.size(), std::memory_order_relaxed);
  for (auto& waiter : due) {
    ANTIPODE_ALWAYS("store.wait_implies_visible", waiter->version <= version);
    waiter->cb(Status::Ok());
  }
}

std::shared_ptr<ReplicatedStore::Waiter> ReplicatedStore::RegisterWaiter(
    Region region, std::string_view key, uint64_t version, VisibilityCallback&& cb) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  KeyRecord& record = RecordFor(shard, key);
  if (record.VersionAt(region) >= version) {
    return nullptr;  // already visible — caller completes synchronously, cb stays with caller
  }
  auto waiter = std::make_shared<Waiter>();
  waiter->region = region;
  waiter->version = version;
  waiter->cb = std::move(cb);
  // Lazily drop abandoned waiters (timed-out syncs, expired asyncs) so a key
  // that is waited on but never written cannot accumulate zombies unboundedly.
  std::erase_if(record.waiters, [](const std::shared_ptr<Waiter>& w) {
    return w->fired.load(std::memory_order_acquire);
  });
  record.waiters.push_back(waiter);
  (*resident_waiters_)[static_cast<size_t>(RegionIndex(region))].fetch_add(
      1, std::memory_order_relaxed);
  return waiter;
}

void ReplicatedStore::ExpireAt(TimePoint deadline,
                               std::vector<std::shared_ptr<Waiter>> waiters) const {
  if (waiters.empty() || deadline == TimePoint::max() || timers_ == nullptr) {
    return;  // unbounded wait: fires only from the apply path
  }
  // The timer owns only the waiters and the resident counters (all shared),
  // so it stays safe even if it outlives this store.
  auto expire = [resident = resident_waiters_, waiters = std::move(waiters)] {
    for (const auto& waiter : waiters) {
      if (!waiter->fired.exchange(true, std::memory_order_acq_rel)) {
        (*resident)[static_cast<size_t>(RegionIndex(waiter->region))].fetch_sub(
            1, std::memory_order_relaxed);
        waiter->cb(Status::DeadlineExceeded("write not visible before deadline"));
      }
    }
  };
  if (!timers_->ScheduleAt(deadline, expire)) {
    // Timer engine already shut down: the deadline can never fire, so expire
    // the waiters now instead of leaking them.
    expire();
  }
}

std::vector<EntryHandle> ReplicatedStore::ScanPrefix(Region region,
                                                     std::string_view prefix) const {
  std::vector<EntryHandle> out;
  const auto ri = static_cast<size_t>(RegionIndex(region));
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, record] : shard.records) {
      if (key.starts_with(prefix) && record.applied[ri]) {
        out.push_back(record.applied[ri]);
      }
    }
  }
  // Shards partition by hash; restore the global key order scans rely on.
  std::sort(out.begin(), out.end(), [](const EntryHandle& a, const EntryHandle& b) {
    return a->key < b->key;
  });
  return out;
}

namespace {

// Decorrelates the lag samples of different stores that were configured with
// the same base seed: without this, two stores with identical sigma would
// draw near-identical jitter sequences and their replication race would be
// artificially deterministic.
ReplicationProfileOptions PerStoreProfile(ReplicationProfileOptions profile,
                                          const std::string& store_name) {
  profile.seed ^= std::hash<std::string>{}(store_name);
  return profile;
}

}  // namespace

ReplicatedStore::ReplicatedStore(ReplicatedStoreOptions options, RegionTopology* topology,
                                 TimerService* timers)
    : options_(std::move(options)),
      topology_(topology),
      timers_(timers),
      profile_(PerStoreProfile(options_.replication, options_.name), topology),
      metrics_(options_.name),
      name_hash_(std::hash<std::string>{}(options_.name)),
      region_mask_(RegionMaskOf(options_.regions)),
      hlc_clock_(&HlcClock::ForGroup(RegionGroupOf(region_mask_))) {
  for (Region origin : options_.regions) {
    auto& dests = remote_destinations_[static_cast<size_t>(RegionIndex(origin))];
    for (Region destination : options_.regions) {
      if (destination != origin) {
        dests.push_back(destination);
      }
    }
  }
  if (options_.fault_injector != nullptr) {
    // A manual ResumeStore on the injector replays whatever this store
    // buffered during the pause; finite fault windows schedule their own heal
    // replay instead (BufferStalled).
    resume_listener_ = options_.fault_injector->AddStoreResumeListener(
        options_.name, [this](Region region) { ReplayBacklog(region); });
  }
}

TimerService::AffinityToken ReplicatedStore::ShipmentAffinity(const std::string& key,
                                                              Region destination) const {
  // Golden-ratio scramble keeps ⟨key, us⟩ and ⟨key, eu⟩ on different workers.
  return (std::hash<std::string>{}(key) ^ name_hash_) +
         0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(RegionIndex(destination) + 1);
}

uint64_t ReplicatedStore::Put(Region origin, const std::string& key, std::string bytes,
                              size_t extra_overhead_bytes) {
  assert(HasRegion(origin) && "write at a region without a replica");
  // Span construction is hoisted behind the enabled() load so the untraced
  // path allocates nothing for tracing — not even the name/category strings.
  std::optional<Span> span;
  if (Tracer::Default().enabled()) {
    span.emplace(Span::Start("store/put", {.category = "store", .region = origin}));
  }
  // A warm pooled block instead of make_shared: a recycled entry's key and
  // bytes strings keep their capacity. Shared (immutably, once published to
  // the key's record) by the record's slots and every destination's
  // shipment lambda; the last handle to drop recycles it.
  EntryBlock* block = EntryBlockPool().Acquire();
  block->refs.store(1, std::memory_order_relaxed);
  EntryHandle handle = EntryHandle::Adopt(block);
  StoredEntry& entry = block->entry;
  entry.key.assign(key);
  entry.bytes = std::move(bytes);
  entry.origin = origin;
  entry.write_time = GlobalClock().Now();
  // Always overwritten (not just when tracing): a recycled block must not
  // leak the previous write's span identity into this one.
  entry.trace_id = 0;
  entry.parent_span_id = 0;
  {
    // seq and HLC stamp are assigned under one lock so stamps are monotone in
    // seq (the stabilization frontier's soundness invariant), and NoteIssued
    // publishes them in stamping order (the caught-up rule reads the issued
    // high-water mark racily and relies on never seeing seq N+1 before N).
    std::lock_guard<std::mutex> lock(stamp_mu_);
    entry.seq = ++seq_counter_;
    entry.hlc = hlc_clock_->Tick();
    visibility_.NoteIssued(entry.seq);
  }
  if (span.has_value() && span->recording()) {
    // Replication shipments inherit the put span, so remote applies land in
    // this trace as its children.
    entry.trace_id = span->context().trace_id;
    entry.parent_span_id = span->context().span_id;
  }

  metrics_.RecordWrite(entry.bytes.size(),
                       options_.per_write_overhead_bytes + extra_overhead_bytes);

  // One critical section assigns the version and publishes the entry as the
  // key's latest write and its origin apply. Origin applies bypass the pause
  // gate: the write is local, not replicated.
  std::vector<std::shared_ptr<Waiter>> due;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    KeyRecord& record = RecordFor(shard, key);
    entry.version = ++record.version;
    record.latest = handle;
    InstallLocked(record, origin, handle, due);
  }
  WakeDue(origin, entry.version, due);
  if (span.has_value() && span->recording()) {
    span->Annotate("store", options_.name);
    span->Annotate("key", key);
    span->Annotate("version", entry.version);
  }
  visibility_.NoteApply(origin, entry.seq, entry.hlc);
  if (apply_hook_) {
    apply_hook_(origin, handle);
  }

  // Asynchronous shipping to the other replicas (precomputed remote list —
  // no per-call destination filtering). Each shipment captures its own
  // EntryHandle copy in a flat lambda small enough for the TimerTask inline
  // buffer, with the drain accounting folded in rather than layered as a
  // second closure — the old path's two std::function heap allocations per
  // shipment are gone. The handle is Reset() *before* the inflight decrement:
  // once the count can reach zero, a drainer may tear the store down, and no
  // handle (or anything else owned by a shipment) may outlive that.
  for (Region destination : remote_destinations_[static_cast<size_t>(RegionIndex(origin))]) {
    double lag_millis = profile_.SampleMillis(origin, destination, entry.bytes.size());
    if (options_.fault_injector != nullptr) {
      // Injected latency spike on this replication link (kLinkDelay).
      const LinkFault fault = options_.fault_injector->OnReplicate(options_.name, origin,
                                                                   destination);
      lag_millis = lag_millis * fault.delay_factor + fault.delay_add_model_ms;
    }
    metrics_.RecordReplicationLagMillis(lag_millis);
    inflight_->count.fetch_add(1, std::memory_order_relaxed);
    const bool scheduled = timers_->ScheduleAfter(
        TimeScale::FromModelMillis(lag_millis), ShipmentAffinity(key, destination),
        [this, destination, lag_millis, h = handle, inflight = inflight_]() mutable {
          RecordReplicationSpan(destination, lag_millis, *h);
          ApplyAt(destination, h);
          h.Reset();
          // Only a decrement that reaches zero touches the drain lock; past
          // it a drainer may destroy the store, so the wakeup goes through
          // the co-owned inflight block — never `this`.
          if (inflight->count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(inflight->mu);
            inflight->cv.notify_all();
          }
        });
    if (!scheduled) {
      // Timer service already shut down: the shipment was dropped, so undo
      // the accounting or DrainReplication would wait forever.
      inflight_->count.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  return entry.version;
}

bool ReplicatedStore::ScheduleStoreWork(Duration delay, TimerService::AffinityToken affinity,
                                        std::function<void()> fn) {
  inflight_->count.fetch_add(1, std::memory_order_relaxed);
  const bool scheduled = timers_->ScheduleAfter(
      delay, affinity, [fn = std::move(fn), inflight = inflight_] {
        fn();
        // Only a decrement that reaches zero touches the drain lock. Past
        // this decrement a drainer may destroy the store, so the wakeup
        // goes through the co-owned inflight block — never `this`.
        if (inflight->count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(inflight->mu);
          inflight->cv.notify_all();
        }
      });
  if (!scheduled) {
    // Timer service already shut down: the work was dropped, so undo the
    // accounting or DrainReplication would wait forever.
    inflight_->count.fetch_sub(1, std::memory_order_acq_rel);
  }
  return scheduled;
}

ReplicatedStore::~ReplicatedStore() {
  DrainReplication();
  // Manual pauses are keyed by store name in the (typically process-wide)
  // injector; clear them so a later same-named store doesn't inherit a stall.
  // The resume listener goes first: these ResumeStore calls must not replay
  // this store's backlog mid-destruction (the replay could schedule timer
  // work past the drain above).
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->RemoveStoreResumeListener(resume_listener_);
    for (Region region : options_.regions) {
      options_.fault_injector->ResumeStore(options_.name, region);
    }
  }
}

// Replication shipments start and finish on different threads (Put vs the
// timer dispatcher), so the span is assembled manually: it covers write-time
// to arrival-time at the destination and is parented under the put span the
// entry was stamped with.
void ReplicatedStore::RecordReplicationSpan(Region destination, double lag_millis,
                                            const StoredEntry& entry) const {
  Tracer& tracer = Tracer::Default();
  if (!tracer.enabled() || entry.trace_id == 0) {
    return;
  }
  TraceEvent event;
  event.name = "replication/apply";
  event.category = "replication";
  event.trace_id = entry.trace_id;
  event.span_id = tracer.NextSpanId();
  event.parent_span_id = entry.parent_span_id;
  event.region = destination;
  event.start = entry.write_time;
  event.end = GlobalClock().Now();
  event.annotations.emplace_back("store", options_.name);
  event.annotations.emplace_back("key", entry.key);
  event.annotations.emplace_back("version", std::to_string(entry.version));
  char lag[32];
  std::snprintf(lag, sizeof(lag), "%.3f", lag_millis);
  event.annotations.emplace_back("lag_model_ms", lag);
  tracer.Record(std::move(event));
}

// Short, fixed retry delay for injected transient apply errors. Probability-
// gated rules converge almost surely; a probability-1.0 rule retries until
// its window closes.
constexpr double kApplyRetryModelMillis = 5.0;

void ReplicatedStore::ApplyAt(Region region, const EntryHandle& handle) {
  FaultInjector* injector = options_.fault_injector;
  if (injector != nullptr) {
    const StoredEntry& entry = *handle;
    const StallDecision stall = injector->StoreStall(options_.name, entry.origin, region);
    if (stall.stalled) {
      BufferStalled(region, handle, stall);
      return;
    }
    if (injector->InjectApplyError(options_.name, region)) {
      // Transient apply failure: the shipment retries after a short backoff.
      // The retry shares the shipment's ⟨key, region⟩ affinity, and a newer
      // version outrunning it is harmless (stale replays are ignored but
      // still watermark through ApplyReplicated).
      MetricsRegistry::Default()
          .GetCounter("store.apply_retries", {{"store", options_.name}})
          ->Increment();
      if (ScheduleStoreWork(TimeScale::FromModelMillis(kApplyRetryModelMillis),
                            ShipmentAffinity(entry.key, region),
                            [this, region, handle] { ApplyAt(region, handle); })) {
        return;
      }
      // Timer service gone (shutdown): fall through and apply inline rather
      // than lose the write.
    }
  }
  ApplyReplicated(region, handle);
}

void ReplicatedStore::BufferStalled(Region region, const EntryHandle& handle,
                                    const StallDecision& stall) {
  const auto idx = static_cast<size_t>(RegionIndex(region));
  bool schedule_heal = false;
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    stalled_[idx].push_back(handle);
    if (stall_started_[idx] == TimePoint{}) {
      stall_started_[idx] = GlobalClock().Now();
    }
    if (stall.heal_known && !heal_pending_[idx]) {
      heal_pending_[idx] = true;
      schedule_heal = true;
    }
  }
  if (schedule_heal) {
    const bool scheduled = ScheduleStoreWork(
        stall.heal_in, ShipmentAffinity(options_.name, region), [this, region] {
          {
            std::lock_guard<std::mutex> lock(pause_mu_);
            heal_pending_[static_cast<size_t>(RegionIndex(region))] = false;
          }
          ReplayBacklog(region);
        });
    if (!scheduled) {
      std::lock_guard<std::mutex> lock(pause_mu_);
      heal_pending_[idx] = false;
    }
  }
}

void ReplicatedStore::ReplayBacklog(Region region) {
  const auto idx = static_cast<size_t>(RegionIndex(region));
  std::vector<EntryHandle> backlog;
  TimePoint started;
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    backlog.swap(stalled_[idx]);
    started = stall_started_[idx];
    stall_started_[idx] = TimePoint{};
  }
  // The sweep must drive at least one heal that actually had buffered writes
  // to replay (an empty backlog means the outage window missed the traffic).
  ANTIPODE_SOMETIMES("store.backlog_replayed", !backlog.empty());
  // Replay in arrival order; entries re-buffer (and re-schedule a heal) when
  // the region is still stalled by another rule or a manual pause.
  for (const EntryHandle& handle : backlog) {
    ApplyAt(region, handle);
  }
  bool healed;
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    healed = stalled_[idx].empty();
    if (!healed && started != TimePoint{}) {
      stall_started_[idx] = started;  // still down: keep the outage clock running
    }
  }
  if (healed && started != TimePoint{} && !backlog.empty()) {
    MetricsRegistry::Default()
        .GetHistogram("store.region_outage_ms",
                      {{"store", options_.name}, {"region", std::string(RegionName(region))}})
        ->Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
            GlobalClock().Now() - started)));
  }
}

void ReplicatedStore::ApplyReplicated(Region region, const EntryHandle& handle) {
  const StoredEntry& entry = *handle;
  // The hybrid half of the HLC: fold the remote stamp into the local clock so
  // later local stamps dominate it (a no-op while every replica of one store
  // shares the store's region-group clock, but it keeps the protocol honest).
  if (entry.hlc != 0) {
    hlc_clock_->Observe(entry.hlc);
  }
  std::vector<std::shared_ptr<Waiter>> due;
  bool installed;
  {
    Shard& shard = ShardFor(entry.key);
    std::lock_guard<std::mutex> lock(shard.mu);
    installed = InstallLocked(RecordFor(shard, entry.key), region, handle, due);
  }
  if (installed) {
    WakeDue(region, entry.version, due);
  }
  // Unconditional even when the record apply was a stale replay (a newer
  // version of the key outran this shipment): the watermark needs every
  // ⟨seq, region⟩ exactly once.
  visibility_.NoteApply(region, entry.seq, entry.hlc);
  if (apply_hook_) {
    apply_hook_(region, handle);
  }
}

void ReplicatedStore::WaitFrontierAsync(Region region, uint64_t cut_hlc, TimePoint deadline,
                                        VisibilityCallback cb) const {
  if (!HasRegion(region)) {
    // No replica at this region: nothing of this store's can be read (or be
    // stale) there.
    cb(Status::Ok());
    return;
  }
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->InjectWaitError(options_.name, region)) {
    cb(Status::Unavailable("injected wait error (frontier): " + options_.name));
    return;
  }
  std::shared_ptr<StoreVisibility::FrontierWaiter> waiter =
      visibility_.AwaitFrontier(region, cut_hlc, std::move(cb));
  if (waiter == nullptr) {
    cb(Status::Ok());  // already covered; AwaitFrontier left cb untouched
    return;
  }
  if (deadline == TimePoint::max() || timers_ == nullptr) {
    return;  // unbounded wait: fires only from the apply path
  }
  // The timer owns only the waiter (shared), so it stays safe even if it
  // outlives this store — same contract as the per-key deadline timers.
  auto expire = [waiter] {
    if (!waiter->fired.exchange(true, std::memory_order_acq_rel)) {
      waiter->cb(Status::DeadlineExceeded("stabilization frontier behind cut at deadline"));
    }
  };
  if (!timers_->ScheduleAt(deadline, expire)) {
    // Timer engine already shut down: deliver the deadline outcome inline so
    // the frontier waiter cannot hang past teardown.
    expire();
  }
}

void ReplicatedStore::DrainReplication() const {
  // Fast path: nothing in flight, skip the lock entirely. (Safe even if the
  // final decrement's notify is still running: it only touches the shared
  // inflight block, which the shipment lambda co-owns.)
  if (inflight_->count.load(std::memory_order_acquire) == 0) {
    return;
  }
  // No lost wakeup: a shipment that decrements to zero after the predicate
  // loads a non-zero count must acquire inflight_->mu to notify. In
  // simulation, returning with shipments in flight means the engine dropped
  // them at shutdown — nothing more can land, so waiting longer would only
  // mask it.
  BlockUntil(inflight_->mu, inflight_->cv, TimePoint::max(),
             [this] { return inflight_->count.load(std::memory_order_acquire) == 0; });
}

EntryHandle ReplicatedStore::Get(Region region, const std::string& key) const {
  assert(HasRegion(region) && "read at a region without a replica");
  EntryHandle handle;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.records.find(key);
    if (it != shard.records.end()) {
      handle = it->second.applied[static_cast<size_t>(RegionIndex(region))];
    }
  }
  const_cast<StoreMetrics&>(metrics_).RecordRead(static_cast<bool>(handle));
  return handle;
}

EntryHandle ReplicatedStore::StrongGet(Region caller, const std::string& key) const {
  EntryHandle latest;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.records.find(key);
    if (it != shard.records.end()) {
      latest = it->second.latest;
    }
  }
  // Pay the WAN round trip to the authoritative copy (the key's origin); a
  // miss still costs the probe.
  const Region authority_region = latest ? latest->origin : caller;
  SimulatedNetwork::Default().SleepRtt(caller, authority_region, 64,
                                       latest ? latest->bytes.size() : 0);
  const_cast<StoreMetrics&>(metrics_).RecordRead(static_cast<bool>(latest));
  return latest;
}

bool ReplicatedStore::IsVisible(Region region, const std::string& key, uint64_t version) const {
  // No replica at this region: nothing of this store's can be read (or be
  // stale) there, so the write is vacuously "visible" — same contract as
  // WaitFrontierAsync. Keeps unscoped barriers over locality-partitioned
  // deployments defined (wasted work, never an assert).
  return !HasRegion(region) || AppliedVersion(region, key) >= version;
}

uint64_t ReplicatedStore::AppliedVersion(Region region, std::string_view key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(key);
  return it == shard.records.end() ? 0 : it->second.VersionAt(region);
}

// Injected wait faults surface as retryable Unavailable instead of letting
// the wait hang or lie about visibility: callers (shims, barriers) propagate
// the Status and may simply re-issue the wait.
std::optional<Status> ReplicatedStore::WaitShortCircuit(Region region) const {
  if (!HasRegion(region)) {
    return Status::Ok();  // vacuous: no replica there (see IsVisible)
  }
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->InjectWaitError(options_.name, region)) {
    return Status::Unavailable("injected wait error: " + options_.name);
  }
  return std::nullopt;
}

Status ReplicatedStore::WaitVisible(Region region, const std::string& key, uint64_t version,
                                    Duration timeout) const {
  if (std::optional<Status> shortcut = WaitShortCircuit(region)) {
    return *shortcut;
  }
  auto done = std::make_shared<Completion<Status>>();
  std::shared_ptr<Waiter> waiter = RegisterWaiter(
      region, key, version, [done](Status status) { done->Set(std::move(status)); });
  if (waiter == nullptr) {
    return Status::Ok();  // already visible
  }
  if (!done->WaitUntil(DeadlineAfter(timeout))) {
    // Timed out (or the simulation went quiescent: the apply that would
    // satisfy this wait can never happen). Claim the waiter so the apply path
    // drops it; losing the claim means an apply is concurrently delivering
    // success — wait for that instead.
    if (!waiter->fired.exchange(true, std::memory_order_acq_rel)) {
      (*resident_waiters_)[static_cast<size_t>(RegionIndex(region))].fetch_sub(
          1, std::memory_order_relaxed);
      return Status::DeadlineExceeded("write not visible before deadline: " + key);
    }
    done->WaitUntil(TimePoint::max());
  }
  Status status = done->Take();
  if (status.ok() && PropertyRegistry::Instance().deep_checks()) {
    // Cross-validate the wait contract against an independent read of the
    // record: an Ok wait that left the version invisible would be a lie the
    // barrier layer builds on.
    ANTIPODE_ALWAYS("store.wait_implies_visible", IsVisible(region, key, version));
  }
  return status;
}

void ReplicatedStore::WaitVisibleAsync(Region region, const std::string& key, uint64_t version,
                                       TimePoint deadline, VisibilityCallback cb) const {
  if (std::optional<Status> shortcut = WaitShortCircuit(region)) {
    cb(std::move(*shortcut));
    return;
  }
  std::shared_ptr<Waiter> waiter = RegisterWaiter(region, key, version, std::move(cb));
  if (waiter == nullptr) {
    cb(Status::Ok());  // already visible; RegisterWaiter left cb untouched
    return;
  }
  if (deadline != TimePoint::max()) {
    ExpireAt(deadline, {std::move(waiter)});
  }
}

void ReplicatedStore::WaitVisibleBatchAsync(Region region, std::span<const KeyVersion> items,
                                            TimePoint deadline, VisibilityCallback cb) const {
  if (std::optional<Status> shortcut = WaitShortCircuit(region)) {
    cb(std::move(*shortcut));
    return;
  }
  // Fast path: one read-only pass over the batch. In the steady state every
  // version has long replicated, so the whole wait completes here without the
  // gather, the per-item callback allocations, or any waiter registration.
  // Racing applies are harmless — visibility is monotone, so a version seen
  // visible here stays visible; a miss just falls through to the slow path,
  // whose RegisterWaiter re-checks under the same shard lock.
  if (std::all_of(items.begin(), items.end(), [&](const KeyVersion& item) {
        return AppliedVersion(region, item.key) >= item.version;
      })) {
    cb(Status::Ok());
    return;
  }
  // Completion gather shared by every registered waiter plus one launch token
  // held during registration, so `cb` cannot fire while waiters are still
  // being added. First error (in practice only DeadlineExceeded) wins.
  struct BatchGather {
    std::atomic<size_t> pending{1};
    std::mutex mu;
    Status first_error = Status::Ok();
    VisibilityCallback cb;
    void Complete(Status status) {
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = std::move(status);
      }
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Status final = Status::Ok();
        {
          std::lock_guard<std::mutex> lock(mu);
          final = first_error;
        }
        cb(std::move(final));
      }
    }
  };
  auto gather = std::make_shared<BatchGather>();
  gather->cb = std::move(cb);

  // Waiters that actually registered share one deadline timer.
  std::vector<std::shared_ptr<Waiter>> registered;
  for (const KeyVersion& item : items) {
    gather->pending.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Waiter> waiter =
        RegisterWaiter(region, item.key, item.version,
                       [gather](Status status) { gather->Complete(std::move(status)); });
    if (waiter == nullptr) {
      gather->Complete(Status::Ok());  // already visible
      continue;
    }
    registered.push_back(std::move(waiter));
  }
  ExpireAt(deadline, std::move(registered));
  gather->Complete(Status::Ok());  // release the launch token
}

WakeupStats ReplicatedStore::TotalWakeups() const {
  WakeupStats total;
  total.applies = applies_.load(std::memory_order_relaxed);
  total.waiters_notified = waiters_notified_.load(std::memory_order_relaxed);
  total.notify_all_wakeups = notify_all_wakeups_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace antipode
