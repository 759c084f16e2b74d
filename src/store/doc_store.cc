#include "src/store/doc_store.h"

namespace antipode {

ReplicatedStoreOptions DocStore::DefaultOptions(std::string name, std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  // Small base lag, but the oplog tail compounds with WAN distance: the
  // multiplier makes US→SG lag ~2x US→EU, matching the violation-rate gap the
  // paper reports (0.1% vs 34%).
  options.replication.median_millis = 50.0;
  options.replication.sigma = 0.15;
  options.replication.network_delay_multiplier = 8.0;
  options.replication.payload_millis_per_mib = 25.0;
  return options;
}

Result<uint64_t> DocStore::UpdateField(Region region, const std::string& collection,
                                       const std::string& id, const std::string& field,
                                       const Value& value) {
  auto doc = FindById(region, collection, id);
  if (!doc.has_value()) {
    return Status::NotFound("no document " + collection + "/" + id);
  }
  doc->Set(field, value);
  return InsertDoc(region, collection, id, *doc);
}

size_t DocStore::CountCollection(Region region, const std::string& collection) const {
  size_t count = 0;
  for (const EntryHandle& handle : ScanPrefix(region, collection + "/")) {
    if (!handle->bytes.empty()) {
      ++count;
    }
  }
  return count;
}

std::vector<Document> DocStore::FindWhere(Region region, const std::string& collection,
                                          const std::string& field, const Value& value) const {
  std::vector<Document> out;
  for (const EntryHandle& handle : ScanPrefix(region, collection + "/")) {
    auto doc = Document::Deserialize(handle->bytes);
    if (!doc.ok()) {
      continue;
    }
    auto f = doc->Get(field);
    if (f.has_value() && *f == value) {
      out.push_back(std::move(*doc));
    }
  }
  return out;
}

}  // namespace antipode
