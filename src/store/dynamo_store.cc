#include "src/store/dynamo_store.h"

namespace antipode {

ReplicatedStoreOptions DynamoStore::DefaultOptions(std::string name,
                                                   std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  options.replication.median_millis = 600.0;
  options.replication.sigma = 0.3;
  options.replication.payload_millis_per_mib = 150.0;
  return options;
}

ReplicatedStoreOptions DynamoStore::NotifierOptions(std::string name,
                                                    std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  // Streams + cross-region trigger pipeline: tens of seconds.
  options.replication.median_millis = 30000.0;
  options.replication.sigma = 0.4;
  options.replication.payload_millis_per_mib = 150.0;
  return options;
}

Result<uint64_t> DynamoStore::PutItem(Region region, const std::string& table,
                                      const std::string& key, const Document& item) {
  std::string bytes = item.Serialize();
  if (bytes.size() > kMaxItemBytes) {
    return Status::InvalidArgument("item exceeds 400KB cap");
  }
  return Put(region, ItemKey(table, key), std::move(bytes));
}

std::optional<Document> DynamoStore::GetItem(Region region, const std::string& table,
                                             const std::string& key) const {
  auto entry = Get(region, ItemKey(table, key));
  if (!entry || entry->bytes.empty()) {
    return std::nullopt;
  }
  auto doc = Document::Deserialize(entry->bytes);
  if (!doc.ok()) {
    return std::nullopt;
  }
  return std::move(*doc);
}

std::optional<Document> DynamoStore::GetItemConsistent(Region region, const std::string& table,
                                                       const std::string& key) const {
  auto entry = StrongGet(region, ItemKey(table, key));
  if (!entry || entry->bytes.empty()) {
    return std::nullopt;
  }
  auto doc = Document::Deserialize(entry->bytes);
  if (!doc.ok()) {
    return std::nullopt;
  }
  return std::move(*doc);
}

}  // namespace antipode
