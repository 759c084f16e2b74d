#include "src/antipode/visibility_cache.h"

#include <algorithm>

namespace antipode {

StoreVisibility::StoreVisibility(std::string name, const std::vector<Region>& regions)
    : name_(std::move(name)), tracked_mask_(RegionMaskOf(regions)) {
  for (Region r : regions) tracked_[RegionIndex(r)] = true;
}

void StoreVisibility::NoteIssued(uint64_t seq, uint64_t hlc) {
  // Called under the store's stamp lock, so both values advance monotonically
  // and in lockstep with the seq/stamp assignment — the caught-up rule
  // (FrontierCovers) reads them racily and relies on exactly that.
  issued_seq_.store(seq, std::memory_order_release);
  issued_hlc_.store(hlc, std::memory_order_release);
}

void StoreVisibility::NoteApply(Region region, std::string_view key, uint64_t version,
                                uint64_t seq, uint64_t hlc) {
  const size_t ri = RegionIndex(region);
  // Per-key entry first, watermark second: once watermark(r) ≥ seq, a reader
  // combining ⟨latest_version, latest_seq⟩ with the watermark must find the
  // entry already updated, otherwise an old-write probe could miss forever.
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.keys.find(key);
    if (it == shard.keys.end()) it = shard.keys.emplace(std::string(key), KeyEntry{}).first;
    KeyEntry& entry = it->second;
    if (version > entry.latest_version) {
      entry.latest_version = version;
      entry.latest_seq = seq;
      entry.latest_hlc = hlc;
    }
    entry.visible[ri] = std::max(entry.visible[ri], version);
  }
  // Advance the contiguous-prefix watermark (and the stabilization frontier
  // alongside it). Applies race across keys, so out-of-order seqs park in
  // `pending` until the gap fills. Frontier waiters satisfied by the advance
  // fire after the tracker lock drops — their callbacks may take unrelated
  // locks (barrier gathers) but must not re-enter this cache.
  SeqTracker& tracker = trackers_[ri];
  std::vector<std::shared_ptr<FrontierWaiter>> due;
  {
    std::lock_guard<std::mutex> lock(tracker.mu);
    if (seq < tracker.next_expected) return;  // duplicate notification
    auto& pending = tracker.pending;
    if (seq != tracker.next_expected) {
      pending.emplace_back(seq, hlc);
      std::push_heap(pending.begin(), pending.end(), std::greater<>());
      return;
    }
    uint64_t next = seq + 1;
    uint64_t frontier = hlc;
    while (!pending.empty() && pending.front().first <= next) {
      if (pending.front().first == next) {
        ++next;
        frontier = std::max(frontier, pending.front().second);
      }  // else a duplicate of a seq the prefix already consumed
      std::pop_heap(pending.begin(), pending.end(), std::greater<>());
      pending.pop_back();
    }
    tracker.next_expected = next;
    const uint64_t watermark = next - 1;
    watermarks_[ri].store(watermark, std::memory_order_release);
    // Stamps are monotone in seq, so the max over the consumed run is the
    // stamp of its newest write; the max against the previous frontier only
    // guards against unstamped (hlc = 0) stores.
    if (frontier > frontiers_[ri].load(std::memory_order_relaxed)) {
      frontiers_[ri].store(frontier, std::memory_order_release);
    }
    if (!tracker.frontier_waiters.empty()) {
      const uint64_t f = frontiers_[ri].load(std::memory_order_relaxed);
      const uint64_t issued = issued_seq_.load(std::memory_order_acquire);
      auto keep = tracker.frontier_waiters.begin();
      for (auto& waiter : tracker.frontier_waiters) {
        if (waiter->fired.load(std::memory_order_acquire)) {
          continue;  // abandoned by its deadline timer; drop it
        }
        if ((f >= waiter->cut || watermark >= issued) &&
            !waiter->fired.exchange(true, std::memory_order_acq_rel)) {
          due.push_back(std::move(waiter));
          continue;
        }
        *keep++ = std::move(waiter);
      }
      tracker.frontier_waiters.erase(keep, tracker.frontier_waiters.end());
    }
  }
  for (auto& waiter : due) {
    waiter->cb(Status::Ok());
  }
}

void StoreVisibility::NoteVisible(Region region, std::string_view key, uint64_t version) {
  const size_t ri = RegionIndex(region);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) it = shard.keys.emplace(std::string(key), KeyEntry{}).first;
  KeyEntry& entry = it->second;
  if (version > entry.latest_version) {
    // Sequence number unknown: record the version but leave latest_seq = 0 so
    // the watermark path stays conservative for this key.
    entry.latest_version = version;
    entry.latest_seq = 0;
  }
  entry.visible[ri] = std::max(entry.visible[ri], version);
}

bool StoreVisibility::IsVisible(Region region, std::string_view key, uint64_t version) const {
  const size_t ri = RegionIndex(region);
  if (!tracked_[ri]) return false;
  uint64_t latest_version = 0;
  uint64_t latest_seq = 0;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.keys.find(key);
    if (it == shard.keys.end()) return false;
    const KeyEntry& entry = it->second;
    if (entry.visible[ri] >= version) return true;
    latest_version = entry.latest_version;
    latest_seq = entry.latest_seq;
  }
  // Old-write coverage: if the key's newest write has applied at `region`
  // (seq ≤ watermark), then so has every older write of the key — per-key
  // applies are ordered — and `version` ≤ latest_version is one of those.
  // The watermark is read after the entry, so a hit here is never stale.
  return latest_seq != 0 && latest_version >= version &&
         latest_seq <= watermarks_[ri].load(std::memory_order_acquire);
}

bool StoreVisibility::IsVisibleEverywhere(std::string_view key, uint64_t version) const {
  uint64_t latest_version = 0;
  uint64_t latest_seq = 0;
  std::array<uint64_t, kNumRegions> visible{};
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.keys.find(key);
    if (it == shard.keys.end()) return false;
    const KeyEntry& entry = it->second;
    latest_version = entry.latest_version;
    latest_seq = entry.latest_seq;
    visible = entry.visible;
  }
  bool any_tracked = false;
  for (size_t ri = 0; ri < kNumRegions; ++ri) {
    if (!tracked_[ri]) continue;
    any_tracked = true;
    if (visible[ri] >= version) continue;
    if (latest_seq != 0 && latest_version >= version &&
        latest_seq <= watermarks_[ri].load(std::memory_order_acquire)) {
      continue;
    }
    return false;
  }
  return any_tracked;
}

uint64_t StoreVisibility::KnownHlc(std::string_view key, uint64_t version) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) return 0;
  const KeyEntry& entry = it->second;
  // The newest stamped write supersedes `version` (per-key versions are
  // monotone): once that write is under the frontier, so is the dependency.
  return entry.latest_version >= version ? entry.latest_hlc : 0;
}

std::shared_ptr<StoreVisibility::FrontierWaiter> StoreVisibility::AwaitFrontier(
    Region region, uint64_t cut, std::function<void(Status)>&& cb) {
  const size_t ri = RegionIndex(region);
  SeqTracker& tracker = trackers_[ri];
  std::lock_guard<std::mutex> lock(tracker.mu);
  // Checked under the tracker lock NoteApply advances under, so a concurrent
  // advance either satisfies the condition here or finds the waiter
  // registered — no lost wakeup. A racing NoteIssued can only raise
  // `issued_seq`, and the write it announces is stamped after every cut
  // computed before it, so reading the older value stays sound.
  if (frontiers_[ri].load(std::memory_order_acquire) >= cut ||
      watermarks_[ri].load(std::memory_order_acquire) >=
          issued_seq_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  auto waiter = std::make_shared<FrontierWaiter>();
  waiter->cut = cut;
  waiter->cb = std::move(cb);
  auto& list = tracker.frontier_waiters;
  // Lazily drop abandoned waiters (expired deadlines) so a frontier that
  // never advances cannot accumulate zombies unboundedly.
  list.erase(std::remove_if(list.begin(), list.end(),
                            [](const std::shared_ptr<FrontierWaiter>& w) {
                              return w->fired.load(std::memory_order_acquire);
                            }),
             list.end());
  list.push_back(waiter);
  return waiter;
}

size_t StoreVisibility::FrontierWaiterCount(Region region) const {
  SeqTracker& tracker = trackers_[RegionIndex(region)];
  std::lock_guard<std::mutex> lock(tracker.mu);
  size_t live = 0;
  for (const auto& waiter : tracker.frontier_waiters) {
    if (!waiter->fired.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

uint64_t StoreVisibility::MinWatermark() const {
  uint64_t min = UINT64_MAX;
  bool any = false;
  for (size_t ri = 0; ri < kNumRegions; ++ri) {
    if (!tracked_[ri]) continue;
    any = true;
    min = std::min(min, watermarks_[ri].load(std::memory_order_acquire));
  }
  return any ? min : 0;
}

size_t StoreVisibility::KeyCount() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.keys.size();
  }
  return total;
}

VisibilityCache& VisibilityCache::Default() {
  static VisibilityCache* cache = new VisibilityCache();
  return *cache;
}

std::shared_ptr<StoreVisibility> VisibilityCache::Register(const std::string& name,
                                                           const std::vector<Region>& regions) {
  auto state = std::make_shared<StoreVisibility>(name, regions);
  const int group = RegionGroupOf(state->tracked_mask());
  // A re-registration with a different footprint moves buckets; evict the
  // name everywhere else first so a stale same-named entry can never shadow
  // the fresh one from another bucket (the cold-start guarantee).
  for (int g = 0; g < kNumRegionGroups; ++g) {
    if (g == group) continue;
    Bucket& bucket = buckets_[static_cast<size_t>(g)];
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.stores.erase(name);
  }
  Bucket& bucket = buckets_[static_cast<size_t>(group)];
  std::lock_guard<std::mutex> lock(bucket.mu);
  bucket.stores[name] = state;
  return state;
}

void VisibilityCache::Unregister(const std::shared_ptr<StoreVisibility>& state) {
  if (!state) return;
  Bucket& bucket = buckets_[static_cast<size_t>(RegionGroupOf(state->tracked_mask()))];
  std::lock_guard<std::mutex> lock(bucket.mu);
  auto it = bucket.stores.find(state->name());
  if (it != bucket.stores.end() && it->second == state) bucket.stores.erase(it);
}

std::shared_ptr<StoreVisibility> VisibilityCache::Find(std::string_view name) const {
  for (const Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    auto it = bucket.stores.find(name);
    if (it != bucket.stores.end()) return it->second;
  }
  return nullptr;
}

void VisibilityCache::Clear() {
  for (Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.stores.clear();
  }
}

size_t VisibilityCache::Size() const {
  size_t total = 0;
  for (const Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    total += bucket.stores.size();
  }
  return total;
}

}  // namespace antipode
