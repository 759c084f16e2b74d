#include "src/store/store_visibility.h"

#include <algorithm>

#include "src/store/replicated_store.h"

namespace antipode {

bool StoreVisibility::IsVisible(Region region, std::string_view key, uint64_t version) const {
  return store_.HasRegion(region) && store_.AppliedVersion(region, key) >= version;
}

uint64_t StoreVisibility::StampCovering(std::string_view key, uint64_t version) const {
  ReplicatedStore::Shard& shard = store_.ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(key);
  if (it == shard.records.end()) return 0;
  // Put publishes `latest` after NoteIssued announced its seq, so a frontier
  // wait on this stamp can never be satisfied by the caught-up rule before
  // the write itself has applied.
  const EntryHandle& latest = it->second.latest;
  return latest && latest->version >= version ? latest->hlc : 0;
}

void StoreVisibility::NoteApply(Region region, uint64_t seq, uint64_t hlc) {
  const size_t ri = RegionIndex(region);
  // Advance the contiguous-prefix watermark (and the stabilization frontier
  // alongside it). Applies race across keys, so out-of-order seqs park in
  // `pending` until the gap fills. Frontier waiters satisfied by the advance
  // fire after the tracker lock drops — their callbacks may take unrelated
  // locks (barrier gathers) but must not re-enter this tracker.
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
    // guards against unstamped (hlc = 0) writes.
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

std::shared_ptr<StoreVisibility::FrontierWaiter> StoreVisibility::AwaitFrontier(
    Region region, uint64_t cut, std::function<void(Status)>&& cb) const {
  SeqTracker& tracker = trackers_[RegionIndex(region)];
  std::lock_guard<std::mutex> lock(tracker.mu);
  // Checked under the tracker lock NoteApply advances under, so a concurrent
  // advance either satisfies the condition here or finds the waiter
  // registered — no lost wakeup. A racing NoteIssued can only raise the
  // issued seq, and the write it announces is stamped after every cut
  // computed before it, so reading the older value stays sound.
  if (FrontierCovers(region, cut)) {
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

}  // namespace antipode
