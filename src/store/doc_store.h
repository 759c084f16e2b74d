// MongoDB-like document store: collections of documents addressed by `_id`,
// with oplog-style replication whose lag compounds with network distance
// (the paper attributes DeathStarBench's US→SG violation rate to MongoDB's
// replication suffering under WAN latency, §7.3 [52]).

#ifndef SRC_STORE_DOC_STORE_H_
#define SRC_STORE_DOC_STORE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/store/replicated_store.h"
#include "src/store/value.h"

namespace antipode {

class DocStore : public ReplicatedStore {
 public:
  static ReplicatedStoreOptions DefaultOptions(std::string name, std::vector<Region> regions);

  explicit DocStore(ReplicatedStoreOptions options,
                    RegionTopology* topology = &RegionTopology::Default(),
                    TimerService* timers = &TimerService::Shared())
      : ReplicatedStore(std::move(options), topology, timers) {}

  // Inserts or replaces the document with the given id. Returns the version.
  uint64_t InsertDoc(Region region, const std::string& collection, const std::string& id,
                     const Document& doc) {
    return Put(region, DocKey(collection, id), doc.Serialize());
  }

  std::optional<Document> FindById(Region region, const std::string& collection,
                                   const std::string& id) const {
    auto entry = Get(region, DocKey(collection, id));
    if (!entry || entry->bytes.empty()) {
      return std::nullopt;
    }
    auto doc = Document::Deserialize(entry->bytes);
    if (!doc.ok()) {
      return std::nullopt;
    }
    return std::move(*doc);
  }

  // Scan of one collection with a field-equality filter.
  std::vector<Document> FindWhere(Region region, const std::string& collection,
                                  const std::string& field, const Value& value) const;

  // Read-modify-write of a single field ($set-style update) against the
  // region's replica. Fails when the document is absent there.
  Result<uint64_t> UpdateField(Region region, const std::string& collection,
                               const std::string& id, const std::string& field,
                               const Value& value);

  // Tombstones the document (the deletion replicates like a write).
  uint64_t DeleteDoc(Region region, const std::string& collection, const std::string& id) {
    return Put(region, DocKey(collection, id), std::string());
  }

  // Number of live documents in a collection at the region's replica.
  size_t CountCollection(Region region, const std::string& collection) const;

  static std::string DocKey(const std::string& collection, const std::string& id) {
    return collection + "/" + id;
  }
};

}  // namespace antipode

#endif  // SRC_STORE_DOC_STORE_H_
