#include "src/store/sql_store.h"

#include <algorithm>

namespace antipode {
namespace {

std::string PkToString(const Value& pk) {
  if (pk.is_string()) {
    return pk.as_string();
  }
  if (pk.is_int()) {
    return std::to_string(pk.as_int());
  }
  if (pk.is_double()) {
    return std::to_string(pk.as_double());
  }
  return pk.as_bool() ? "true" : "false";
}

}  // namespace

ReplicatedStoreOptions SqlStore::DefaultOptions(std::string name, std::vector<Region> regions) {
  ReplicatedStoreOptions options;
  options.name = std::move(name);
  options.regions = std::move(regions);
  options.replication.median_millis = 800.0;
  options.replication.sigma = 0.2;
  options.replication.payload_millis_per_mib = 30.0;
  return options;
}

std::string SqlStore::RowKey(const std::string& table, const Value& pk) {
  return table + "/" + PkToString(pk);
}

Status SqlStore::CreateTable(const std::string& table, std::vector<std::string> columns,
                             std::string primary_key) {
  if (std::find(columns.begin(), columns.end(), primary_key) == columns.end()) {
    return Status::InvalidArgument("primary key not among columns: " + primary_key);
  }
  std::lock_guard<std::mutex> lock(schema_mu_);
  if (tables_.count(table) > 0) {
    return Status::AlreadyExists("table exists: " + table);
  }
  tables_[table] = TableMeta{std::move(columns), std::move(primary_key), {}};
  return Status::Ok();
}

Status SqlStore::AddColumn(const std::string& table, const std::string& column) {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  auto& columns = it->second.columns;
  if (std::find(columns.begin(), columns.end(), column) != columns.end()) {
    return Status::AlreadyExists("column exists: " + column);
  }
  columns.push_back(column);
  return Status::Ok();
}

Status SqlStore::CreateIndex(const std::string& table, const std::string& column) {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  const auto& columns = it->second.columns;
  if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
    return Status::NotFound("no such column: " + column);
  }
  it->second.indexes.insert(column);
  return Status::Ok();
}

bool SqlStore::HasIndex(const std::string& table, const std::string& column) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = tables_.find(table);
  return it != tables_.end() && it->second.indexes.count(column) > 0;
}

Result<std::string> SqlStore::PrimaryKeyColumn(const std::string& table) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  return it->second.primary_key;
}

Result<const SqlStore::TableMeta*> SqlStore::FindTable(const std::string& table) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  return const_cast<const TableMeta*>(&it->second);
}

Result<uint64_t> SqlStore::Insert(Region region, const std::string& table, const Row& row) {
  auto meta = FindTable(table);
  if (!meta.ok()) {
    return meta.status();
  }
  auto pk = row.Get((*meta)->primary_key);
  if (!pk.has_value()) {
    return Status::InvalidArgument("row missing primary key: " + (*meta)->primary_key);
  }
  for (const auto& [field, value] : row.fields()) {
    const auto& columns = (*meta)->columns;
    if (std::find(columns.begin(), columns.end(), field) == columns.end()) {
      return Status::InvalidArgument("unknown column: " + field);
    }
  }
  size_t index_overhead = 0;
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_overhead = tables_.at(table).indexes.size() * kIndexEntryOverheadBytes;
  }
  return Put(region, RowKey(table, *pk), row.Serialize(), index_overhead);
}

std::optional<Row> SqlStore::SelectByPk(Region region, const std::string& table,
                                        const Value& pk) const {
  auto entry = Get(region, RowKey(table, pk));
  if (!entry || entry->bytes.empty()) {
    return std::nullopt;
  }
  auto row = Row::Deserialize(entry->bytes);
  if (!row.ok()) {
    return std::nullopt;
  }
  return std::move(*row);
}

std::vector<Row> SqlStore::SelectWhere(Region region, const std::string& table,
                                       const std::string& column, const Value& value) const {
  std::vector<Row> out;
  for (const EntryHandle& handle : ScanPrefix(region, table + "/")) {
    auto row = Row::Deserialize(handle->bytes);
    if (!row.ok()) {
      continue;
    }
    auto field = row->Get(column);
    if (field.has_value() && *field == value) {
      out.push_back(std::move(*row));
    }
  }
  return out;
}

Result<uint64_t> SqlStore::DeleteRow(Region region, const std::string& table, const Value& pk) {
  auto meta = FindTable(table);
  if (!meta.ok()) {
    return meta.status();
  }
  return Put(region, RowKey(table, pk), std::string());
}

Result<uint64_t> SqlStore::UpdateRow(Region region, const std::string& table, const Value& pk,
                                     const std::string& column, const Value& value) {
  auto meta = FindTable(table);
  if (!meta.ok()) {
    return meta.status();
  }
  auto current = SelectByPk(region, table, pk);
  if (!current.has_value()) {
    return Status::NotFound("no row with pk in " + table);
  }
  current->Set(column, value);
  return Insert(region, table, *current);
}

}  // namespace antipode
