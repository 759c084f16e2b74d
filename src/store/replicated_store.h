// The geo-replication engine every concrete datastore builds on.
//
// A `ReplicatedStore` keeps one record per key (the versioned key-object
// model the paper assumes, §6.1): the per-key version counter, the latest
// write (what `StrongGet` reads), one applied slot per region, and the
// waiters blocked on the key. A write lands synchronously at its origin
// region and is shipped asynchronously to every other replica: the
// visibility delay is sampled from the store's `ReplicationProfile` and the
// apply is scheduled on the timer engine with a per-⟨store, key,
// destination⟩ affinity token, so same-key applies at one region execute
// serially and in order while everything else parallelizes.
//
// Entries are shared, never copied: `Put` fills one pooled `StoredEntry`
// block, and the record's latest and applied slots, every destination's
// shipment callback and any stalled backlog hold 8-byte `EntryHandle`s to
// it. A block lives until its last handle drops — a shipment that already
// applied, or a slot overwritten by a newer version — so callbacks never
// reach into the store for it and entry lifetime never races store
// internals. Versions are monotonically increasing per key, so "is ⟨key,
// version⟩ visible at region r" is one comparison against the record's slot
// for r.
//
// The record table is lock-striped into shards, and waiting is event-driven
// and per-⟨key, region⟩: an apply at region r wakes exactly the waiters of
// that key registered for r — never the whole table, never another region's
// — and `WaitVisibleAsync` lets a barrier fan waits out across many stores
// without parking a thread per dependency.
//
// The record is the only per-key visibility fact. The store's
// `StoreVisibility` (visibility()) answers the barrier's zero-wait probe from
// it under the same shard lock, and adds what no single record can: the
// per-⟨store, region⟩ apply watermark and HLC stabilization frontier, fed by
// every apply (DESIGN.md §8, §12).

#ifndef SRC_STORE_REPLICATED_STORE_H_
#define SRC_STORE_REPLICATED_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/object_pool.h"
#include "src/common/status.h"
#include "src/common/timer_service.h"
#include "src/fault/fault_injector.h"
#include "src/net/region.h"
#include "src/store/replication_profile.h"
#include "src/store/store_visibility.h"
#include "src/store/store_metrics.h"

namespace antipode {

class HlcClock;

struct StoredEntry {
  std::string key;
  std::string bytes;
  uint64_t version = 0;
  Region origin = Region::kLocal;
  TimePoint write_time{};  // when the write hit the origin
  // Span context of the originating Put (0 when the write was not traced);
  // replication shipments carry it so every remote apply is recorded as a
  // child of the write's span, in the write's trace.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  // Per-store write sequence number (1-based, dense): stamped by Put,
  // independent of the per-key version. Drives the store's per-region apply
  // low-watermark (StoreVisibility).
  uint64_t seq = 0;
  // Hybrid-logical-clock stamp drawn from the process-wide HlcClock in the
  // same critical section that assigns `seq`, so stamps are monotone in seq —
  // the invariant the stabilization frontier rests on. Trailing fields on
  // purpose: existing aggregate initializers keep their meaning and default
  // seq/hlc to 0.
  uint64_t hlc = 0;
};

// A pooled StoredEntry plus its intrusive refcount. Blocks live in a
// process-lifetime slab pool (EntryBlockPool) and are recycled with their
// string capacities intact, so a steady-state Put fills a warm block without
// touching the heap — this replaces the per-Put make_shared<StoredEntry>
// (entry + control block, two allocations) of the old shipping path.
struct EntryBlock {
  StoredEntry entry;
  std::atomic<uint32_t> refs{0};
};

// The shared slab pool every store draws entry blocks from. Intentionally
// process-lifetime (never destroyed, like TimerService::Shared): a shipment
// callback dropped un-run at timer teardown releases its block *after* the
// owning store is gone, which would be a use-after-free against a per-store
// pool but is always safe against this one.
ObjectPool<EntryBlock>& EntryBlockPool();

// An 8-byte refcounted handle to a pooled entry — what shipment lambdas,
// reads (Get/StrongGet) and broker deliveries hold instead of a copy of the
// entry. Copying bumps the intrusive count; the last Reset()/destructor
// returns the block (strings and all) to EntryBlockPool for reuse. The pool
// is process-lifetime, so a handle stays readable after its store is gone.
class EntryHandle {
 public:
  EntryHandle() = default;
  // Wraps a block whose initial reference is already counted in `refs`.
  static EntryHandle Adopt(EntryBlock* block) { return EntryHandle(block); }

  EntryHandle(const EntryHandle& other) : block_(other.block_) { AddRef(); }
  EntryHandle& operator=(const EntryHandle& other) {
    if (this != &other) {
      Reset();
      block_ = other.block_;
      AddRef();
    }
    return *this;
  }
  EntryHandle(EntryHandle&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  EntryHandle& operator=(EntryHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~EntryHandle() { Reset(); }

  // Drops this reference; the last one recycles the block. Shipment callbacks
  // call this explicitly *before* their inflight decrement so no handle can
  // outlive DrainReplication.
  void Reset() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      EntryBlockPool().Release(block_);
    }
    block_ = nullptr;
  }

  const StoredEntry& operator*() const { return block_->entry; }
  const StoredEntry* operator->() const { return &block_->entry; }
  explicit operator bool() const { return block_ != nullptr; }

 private:
  explicit EntryHandle(EntryBlock* block) : block_(block) {}
  void AddRef() {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EntryBlock* block_ = nullptr;
};

// One ⟨key, version⟩ target of a batched wait. The view must stay valid until
// the batch call returns (a wait on a key with no record yet creates the
// record under a copy of the key).
struct KeyVersion {
  std::string_view key;
  uint64_t version = 0;
};

// Invoked exactly once per registered wait: Ok when the watched version
// became visible, DeadlineExceeded when the deadline fired first.
using VisibilityCallback = std::function<void(Status)>;

// Wakeup accounting for the apply path (thundering-herd diagnostics).
struct WakeupStats {
  uint64_t applies = 0;            // applies that stored a new version
  uint64_t waiters_notified = 0;   // waiters actually woken (key matched)
  uint64_t notify_all_wakeups = 0; // what a per-region notify_all would have
                                   // woken: the region's resident waiters
};

struct ReplicatedStoreOptions {
  std::string name;
  std::vector<Region> regions = {Region::kUs, Region::kEu};
  ReplicationProfileOptions replication;
  // Fixed per-write schema overhead (bytes) added to metrics, e.g. secondary
  // index entries. Configured by shims that alter the data model.
  size_t per_write_overhead_bytes = 0;
  // Fault injector this store consults on the apply/wait/replication paths
  // (nullptr disables injection and falls back to store-local pause flags).
  FaultInjector* fault_injector = &FaultInjector::Default();
};

class ReplicatedStore {
 public:
  ReplicatedStore(ReplicatedStoreOptions options,
                  RegionTopology* topology = &RegionTopology::Default(),
                  TimerService* timers = &TimerService::Shared());
  virtual ~ReplicatedStore();

  ReplicatedStore(const ReplicatedStore&) = delete;
  ReplicatedStore& operator=(const ReplicatedStore&) = delete;

  // Drains outstanding replication (see DrainReplication).
  // Subclass destructors must also drain before destroying their own state.

  // Writes at `origin`; applies locally right away, ships to peers
  // asynchronously. Returns the (per-key monotonic) version.
  // `extra_overhead_bytes` lets typed layers report write amplification that
  // varies per operation (e.g. secondary-index entries on some tables).
  uint64_t Put(Region origin, const std::string& key, std::string bytes,
               size_t extra_overhead_bytes = 0);

  // Local read from the region's replica. Eventually consistent. Returns a
  // handle to the applied entry (empty on a miss): the read copies nothing.
  EntryHandle Get(Region region, const std::string& key) const;

  // Strongly consistent read: a handle to the authoritative latest entry
  // (empty on a miss), paying a WAN round trip from `caller` to the key's
  // origin region.
  EntryHandle StrongGet(Region caller, const std::string& key) const;

  bool IsVisible(Region region, const std::string& key, uint64_t version) const;

  // Blocks until ⟨key, version⟩ (or something newer) is visible at `region`.
  Status WaitVisible(Region region, const std::string& key, uint64_t version,
                     Duration timeout = Duration::max()) const;

  // Event-driven variant: `cb` fires exactly once, from the apply path when
  // the write becomes visible (immediately if it already is) or with
  // DeadlineExceeded when `deadline` passes first. Callers must not destroy
  // the store while waits are outstanding — barriers bound every wait with a
  // deadline or complete it via DrainReplication before teardown.
  void WaitVisibleAsync(Region region, const std::string& key, uint64_t version,
                        TimePoint deadline, VisibilityCallback cb) const;

  // Batched variant over one region: `cb` fires exactly once, with Ok when
  // every ⟨key, version⟩ in `items` is visible, or DeadlineExceeded when the
  // deadline passes with any of them outstanding. When every item is already
  // visible (the steady state) it completes inline after one read-only pass,
  // with no allocation. Otherwise already-visible items register no waiter
  // and the rest share a single deadline timer and one completion. An empty
  // batch completes Ok inline.
  void WaitVisibleBatchAsync(Region region, std::span<const KeyVersion> items,
                             TimePoint deadline, VisibilityCallback cb) const;

  // Stabilization-frontier wait (the stable-frontier enforcement backend's
  // primitive): `cb` fires exactly once — Ok when the region's apply frontier
  // covers `cut_hlc` (see StoreVisibility::FrontierCovers; immediately if it
  // already does, or if this store has no replica at `region`), or
  // DeadlineExceeded when `deadline` passes first. Event-driven off the same
  // NoteApply feed that advances the watermark.
  void WaitFrontierAsync(Region region, uint64_t cut_hlc, TimePoint deadline,
                         VisibilityCallback cb) const;

  // This store's visibility state: the record-backed probe and the apply
  // watermark/frontier. Shims hand it to barriers for the zero-wait fast path.
  const StoreVisibility& visibility() const { return visibility_; }

  const std::string& name() const { return options_.name; }
  const std::vector<Region>& regions() const { return options_.regions; }
  // Replica footprint as a bitmask — the locality scope shims stamp onto the
  // lineage dependencies this store's writes produce (DESIGN.md §13).
  RegionMask region_mask() const { return region_mask_; }
  // The timer service replication (and store-level timers like TTL expiry)
  // runs on. Layers above the store (shims) reuse it so a deployment built
  // around a private TimerService never leaks work onto the shared one.
  TimerService* timers() const { return timers_; }
  StoreMetrics& metrics() { return metrics_; }
  const StoreMetrics& metrics() const { return metrics_; }
  size_t per_write_overhead_bytes() const { return options_.per_write_overhead_bytes; }
  void set_per_write_overhead_bytes(size_t bytes) { options_.per_write_overhead_bytes = bytes; }

  // Apply-path wakeup accounting summed over the store's regions.
  WakeupStats TotalWakeups() const;

  // Hook invoked (on the timer thread) every time an entry becomes visible at
  // a region — including the synchronous local apply — with a handle to the
  // applied entry, which the hook may keep. Queue/pub-sub layers use it to
  // trigger delivery. Set before concurrent use.
  using ApplyHook = std::function<void(Region, const EntryHandle&)>;
  void SetApplyHook(ApplyHook hook) { apply_hook_ = std::move(hook); }

  // Blocks until every scheduled replication apply has fired (in simulation:
  // pumps virtual time via BlockUntil until they have). Call before tearing
  // down a deployment: pending timer callbacks reference this store.
  // The destructor drains too, but subclasses with apply hooks must drain
  // while their members are still alive (their destructors call this first).
  void DrainReplication() const;

  // Failure injection is driven entirely through the store's `FaultInjector`
  // (options.fault_injector): declaratively via `FaultInjector::Arm` (kinds
  // kStoreStall / kRegionOutage / kLinkPartition) or manually via
  // `FaultInjector::PauseStore` / `ResumeStore`. The injector is the single
  // source of truth for what is failing; the store only buffers stalled
  // entries and replays them on heal (it registers a resume listener with the
  // injector so a manual Resume triggers the backlog replay).
  FaultInjector* fault_injector() const { return options_.fault_injector; }

 protected:
  bool HasRegion(Region region) const { return region_mask_ & RegionBit(region); }

  // Handles to every entry applied at `region` whose key starts with
  // `prefix`, sorted by key (typed scans). Walks every shard.
  std::vector<EntryHandle> ScanPrefix(Region region, std::string_view prefix) const;

  // Schedules `fn` on the store's timer under the drain contract: the work
  // counts as in-flight replication, so DrainReplication (and hence the
  // destructor) waits for it. Used by apply-error retries, stall heal
  // replays, and broker redelivery timers. Returns false (and runs nothing)
  // when the timer service has shut down.
  bool ScheduleStoreWork(Duration delay, TimerService::AffinityToken affinity,
                         std::function<void()> fn);

 private:
  // Reads the per-key records (IsVisible, StampCovering) under their shard
  // lock.
  friend class StoreVisibility;

  // A wait registered on one ⟨key, region⟩. The first claimer (apply,
  // deadline timer, or timed-out sync waiter) wins; only the winner may
  // invoke `cb` or abandon the waiter.
  struct Waiter {
    Region region = Region::kUs;
    uint64_t version = 0;
    std::atomic<bool> fired{false};
    VisibilityCallback cb;
  };

  // Everything the store knows about one key. Guarded by its shard's lock;
  // the entries behind the handles are immutable once published.
  struct KeyRecord {
    uint64_t version = 0;  // per-key counter: the last version Put assigned
    EntryHandle latest;    // the newest write (StrongGet)
    std::array<EntryHandle, kNumRegions> applied;  // highest version per region
    std::vector<std::shared_ptr<Waiter>> waiters;  // every region's, tagged

    uint64_t VersionAt(Region region) const {
      const EntryHandle& h = applied[static_cast<size_t>(RegionIndex(region))];
      return h ? h->version : 0;
    }
  };

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, KeyRecord, StringHash, std::equal_to<>> records;
  };
  // Wide enough that concurrent writers and applies of different keys
  // essentially never share a stripe.
  static constexpr size_t kNumShards = 64;

  Shard& ShardFor(std::string_view key) const { return shards_[StringHash{}(key) % kNumShards]; }
  static KeyRecord& RecordFor(Shard& shard, std::string_view key);
  // Highest version of `key` applied at `region` (0 when none).
  uint64_t AppliedVersion(Region region, std::string_view key) const;

  // Installs `handle` as `region`'s applied entry unless the region already
  // holds that version or a newer one (a stale replay), and moves the
  // region's waiters it satisfies into `due`. Caller holds the shard lock.
  static bool InstallLocked(KeyRecord& record, Region region, const EntryHandle& handle,
                            std::vector<std::shared_ptr<Waiter>>& due);
  // Wakeup accounting plus the `due` callbacks, run after the shard lock
  // drops: callbacks may take unrelated locks (barrier gathers, sync-wait
  // completions) but must not re-enter the store.
  void WakeDue(Region region, uint64_t version, std::vector<std::shared_ptr<Waiter>>& due) const;

  // Registers a waiter for ⟨key, version⟩ at `region` unless already
  // visible; returns nullptr in the visible case and leaves `cb` unconsumed
  // (the check and the registration share the shard lock, so an apply can
  // never slip between them).
  std::shared_ptr<Waiter> RegisterWaiter(Region region, std::string_view key, uint64_t version,
                                         VisibilityCallback&& cb) const;
  // Arms one deadline timer that claims every still-pending waiter in
  // `waiters` and hands it DeadlineExceeded. Delivers inline when the timer
  // engine has shut down, so no waiter can hang past teardown.
  void ExpireAt(TimePoint deadline, std::vector<std::shared_ptr<Waiter>> waiters) const;
  // The outcome of a wait that needs no registration: Ok when the store has
  // no replica at `region` (vacuously visible, see IsVisible), Unavailable on
  // an injected wait error; nullopt when the caller should really wait.
  std::optional<Status> WaitShortCircuit(Region region) const;

  // Timer affinity for a shipment: all shipments of `key` to `destination`
  // land on the same engine shard + worker, so per-⟨key, region⟩ applies
  // execute serially in deadline order (FIFO at equal deadlines).
  TimerService::AffinityToken ShipmentAffinity(const std::string& key,
                                               Region destination) const;

  ReplicatedStoreOptions options_;
  RegionTopology* topology_;
  TimerService* timers_;
  ReplicationProfile profile_;
  StoreMetrics metrics_;
  ApplyHook apply_hook_;
  size_t name_hash_ = 0;  // decorrelates affinity tokens across stores
  // Replica footprint mask and the region-group HLC clock derived from it at
  // construction. Every stamp this store ever issues comes from this one
  // clock, so stamps stay monotone in seq regardless of how many clocks the
  // process runs (see src/common/hlc.h).
  RegionMask region_mask_ = 0;
  HlcClock* hlc_clock_ = nullptr;

  // Dense per-store write sequence and its pairing with the HLC stamp
  // (StoredEntry::seq / ::hlc sources). One lock covers both assignments plus
  // the NoteIssued publication, so stamps are monotone in seq and the
  // tracker's issued high-water mark advances in stamping order.
  std::mutex stamp_mu_;
  uint64_t seq_counter_ = 0;
  // Remote shipping targets per origin, precomputed at construction so the
  // Put fan-out iterates a dense array instead of re-filtering
  // options_.regions (or building a per-call destinations vector) per write.
  std::array<std::vector<Region>, kNumRegions> remote_destinations_;
  // Watermark/frontier tracker and record-backed probe (visibility()).
  StoreVisibility visibility_{*this};

  // The per-key records, lock-striped by key hash.
  mutable std::array<Shard, kNumShards> shards_;

  // Resident waiters per region, shared (not a raw member) so deadline
  // timers can decrement it safely even if they fire after the store is
  // gone; and the apply-path wakeup counters behind TotalWakeups.
  std::shared_ptr<std::array<std::atomic<uint64_t>, kNumRegions>> resident_waiters_ =
      std::make_shared<std::array<std::atomic<uint64_t>, kNumRegions>>();
  mutable std::atomic<uint64_t> applies_{0};
  mutable std::atomic<uint64_t> waiters_notified_{0};
  mutable std::atomic<uint64_t> notify_all_wakeups_{0};

  // Lock-free in-flight shipment accounting: Put increments before
  // scheduling, the shipment callback decrements after the apply. The mutex/
  // condvar pair exists only for the drain path — a decrement that hits zero
  // takes the lock solely to publish the wakeup (never per-shipment). The
  // state lives behind a shared_ptr co-owned by every shipment lambda (the
  // `resident_waiters_` idiom): the final decrement's notify may run after a
  // drainer saw zero and destroyed the store, so it must not touch members.
  struct InflightShipments {
    std::atomic<size_t> count{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  std::shared_ptr<InflightShipments> inflight_ = std::make_shared<InflightShipments>();

  // Applies the entry at `region`, or buffers it while the region's inbound
  // replication is stalled (manual pause or an armed fault plan), or retries
  // it after an injected transient apply error. Fires the apply hook.
  void ApplyAt(Region region, const EntryHandle& handle);

  // The unconditional half of ApplyAt: record apply + visibility
  // notification + apply hook. Backlog replay goes through ApplyAt (which
  // calls this), so the tracker sees every ⟨seq, region⟩ exactly once
  // regardless of stalls.
  void ApplyReplicated(Region region, const EntryHandle& handle);

  // Buffers a stalled entry and, when the stall has a known heal time,
  // schedules the backlog replay for that moment (one pending replay per
  // region; the replay re-checks and re-schedules if faults persist).
  void BufferStalled(Region region, const EntryHandle& handle, const StallDecision& stall);

  // Re-applies the region's stalled backlog through ApplyAt (entries re-buffer
  // if the region is still stalled) and records store.region_outage_ms once
  // the backlog fully drains.
  void ReplayBacklog(Region region);

  // Emits the "replication/apply" trace span for a shipment that just
  // arrived at `destination` (no-op when tracing is off or the write was not
  // traced).
  void RecordReplicationSpan(Region destination, double lag_millis,
                             const StoredEntry& entry) const;

  // Stall state: pause decisions live in the fault injector; the backlog, the
  // per-region "replay already scheduled" latch, and the outage clock are
  // always local.
  mutable std::mutex pause_mu_;
  std::array<std::vector<EntryHandle>, kNumRegions> stalled_;
  std::array<bool, kNumRegions> heal_pending_{};
  std::array<TimePoint, kNumRegions> stall_started_{};

  // Ticket for the injector's resume-listener registration (0 when the store
  // has no injector); removed in the destructor before manual pauses clear.
  uint64_t resume_listener_ = 0;
};

}  // namespace antipode

#endif  // SRC_STORE_REPLICATED_STORE_H_
