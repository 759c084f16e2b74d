// Base for shims whose `wait` is a replication-watermark wait on the
// underlying ReplicatedStore (every store except DynamoDB, whose shim uses
// strongly consistent reads instead).

#ifndef SRC_ANTIPODE_WATERMARK_SHIM_H_
#define SRC_ANTIPODE_WATERMARK_SHIM_H_

#include "src/antipode/shim.h"
#include "src/store/replicated_store.h"

namespace antipode {

class WatermarkShim : public Shim {
 public:
  explicit WatermarkShim(ReplicatedStore* store) : store_(store) {}

  const std::string& store_name() const override { return store_->name(); }

  Status Wait(Region region, const WriteId& id, Duration timeout) override {
    return store_->WaitVisible(region, id.key, id.version, timeout);
  }

  // Event-driven: rides the store's per-key waiter registry instead of
  // parking a pool thread, so a barrier can have thousands outstanding.
  void WaitAsync(Region region, const WriteId& id, TimePoint deadline,
                 WaitCallback done) override {
    store_->WaitVisibleAsync(region, id.key, id.version, deadline, std::move(done));
  }

  // One registry batch per store: already-visible ids register nothing, the
  // rest share a single deadline timer and completion.
  void WaitManyAsync(Region region, std::span<const WriteId> ids, TimePoint deadline,
                     WaitCallback done) override {
    std::vector<KeyVersion> items;
    items.reserve(ids.size());
    for (const WriteId& id : ids) {
      items.push_back(KeyVersion{id.key, id.version});
    }
    store_->WaitVisibleBatchAsync(region, items, deadline, std::move(done));
  }

  bool IsVisible(Region region, const WriteId& id) override {
    return store_->IsVisible(region, id.key, id.version);
  }

  const StoreVisibility* visibility() const override { return &store_->visibility(); }

  // Scope from the store's replica footprint: a region without a replica can
  // never read (or be stale on) this store's writes.
  RegionMask region_scope() const override { return store_->region_mask(); }

  // Frontier waits ride the store's HLC-stamped apply watermark.
  bool SupportsFrontier() const override { return true; }

  void WaitFrontierAsync(Region region, uint64_t cut_hlc, TimePoint deadline,
                         WaitCallback done) override {
    store_->WaitFrontierAsync(region, cut_hlc, deadline, std::move(done));
  }

 protected:
  ReplicatedStore* store_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_WATERMARK_SHIM_H_
