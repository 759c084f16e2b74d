// Shim for the DynamoDB-like store. Dynamo is eventually consistent with no
// replication watermark a client could wait on, so — exactly as the paper
// does (§6.4) — `wait` is implemented with the store's strongly consistent
// reads: a strong read observes the authoritative copy, after which the
// caller can keep reading consistently via `GetItemConsistentCtx`.

#ifndef SRC_ANTIPODE_DYNAMO_SHIM_H_
#define SRC_ANTIPODE_DYNAMO_SHIM_H_

#include <string>

#include "src/antipode/lineage_api.h"
#include "src/antipode/shim.h"
#include "src/store/dynamo_store.h"

namespace antipode {

class DynamoShim : public Shim {
 public:
  explicit DynamoShim(DynamoStore* store) : dynamo_(store) {}

  const std::string& store_name() const override { return dynamo_->name(); }

  // Strong-read based wait: probes the authoritative copy (one WAN round
  // trip) instead of blocking on local replication.
  Status Wait(Region region, const WriteId& id, Duration timeout) override;
  // Async variant: each strong-read probe runs on the shared wait pool and
  // re-arms itself through the timer service, so between probes no thread is
  // parked. The shim must outlive all outstanding waits.
  void WaitAsync(Region region, const WriteId& id, TimePoint deadline,
                 WaitCallback done) override;
  bool IsVisible(Region region, const WriteId& id) override;

  // Record probe hits may still skip strong-read waits: locally visible
  // implies the authority has the write, since the authority is updated
  // synchronously at Put before any shipment.
  const StoreVisibility* visibility() const override { return &dynamo_->visibility(); }

  // ...but a successful strong read proves the authority has the write, not
  // the local replica, and IsVisible (the dry-run/checker surface) is
  // local-replica semantics here: its waits never set the enforcement memo.
  bool wait_implies_visibility() const override { return false; }

  // Scope from the replica footprint, like the watermark shims: a region with
  // no replica of this table can never read (even strongly — the item simply
  // is not served there) so it never needs enforcement.
  RegionMask region_scope() const override { return dynamo_->region_mask(); }

  struct ReadResult {
    Document item;  // lineage field stripped
    Lineage lineage;
  };

  Result<Lineage> PutItem(Region region, const std::string& table, const std::string& key,
                          Document item, Lineage lineage);
  // NotFound when the item is absent; InvalidArgument when the stored bytes
  // do not decode as a document.
  Result<ReadResult> GetItem(Region region, const std::string& table,
                             const std::string& key) const;
  Result<ReadResult> GetItemConsistent(Region region, const std::string& table,
                                       const std::string& key) const;

  Status PutItemCtx(Region region, const std::string& table, const std::string& key,
                    Document item);
  Result<Document> GetItemCtx(Region region, const std::string& table,
                              const std::string& key) const;
  Result<Document> GetItemConsistentCtx(Region region, const std::string& table,
                                        const std::string& key) const;

 private:
  struct ProbeState {
    Region region;
    WriteId id;
    TimePoint deadline;
    WaitCallback done;
  };
  // One strong-read probe; completes or re-arms itself via the timer service.
  void ProbeLoop(const std::shared_ptr<ProbeState>& state);

  // Stores `item` with `lineage` in its lineage field; returns the write's
  // identifier.
  Result<WriteId> FramedPut(Region region, const std::string& table, const std::string& key,
                            Document item, const Lineage& lineage);

  Result<ReadResult> DecodeEntry(const EntryHandle& entry, const std::string& key) const;

  DynamoStore* dynamo_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_DYNAMO_SHIM_H_
