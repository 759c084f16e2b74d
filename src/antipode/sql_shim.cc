#include "src/antipode/sql_shim.h"

#include "src/antipode/framing.h"

namespace antipode {

Status SqlShim::InstrumentTable(const std::string& table, bool with_index) {
  Status status = sql_->AddColumn(table, kLineageField);
  if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
    return status;
  }
  if (with_index) {
    return sql_->CreateIndex(table, kLineageField);
  }
  return Status::Ok();
}

Result<WriteId> SqlShim::FramedInsert(Region region, const std::string& table, Row row,
                                      const Lineage& lineage) {
  auto pk_column = sql_->PrimaryKeyColumn(table);
  if (!pk_column.ok()) {
    return pk_column.status();
  }
  auto pk = row.Get(*pk_column);
  if (!pk.has_value()) {
    return Status::InvalidArgument("row missing primary key: " + *pk_column);
  }
  row.Set(kLineageField, Value(lineage.Serialize()));
  auto version = sql_->Insert(region, table, row);
  if (!version.ok()) {
    return version.status();
  }
  return MakeWriteId(SqlStore::RowKey(table, *pk), *version);
}

Result<Lineage> SqlShim::Insert(Region region, const std::string& table, Row row,
                                Lineage lineage) {
  auto id = FramedInsert(region, table, std::move(row), lineage);
  if (!id.ok()) {
    return id.status();
  }
  lineage.Append(std::move(*id));
  return lineage;
}

Result<SqlShim::ReadResult> SqlShim::SelectByPk(Region region, const std::string& table,
                                                const Value& pk) const {
  const std::string key = SqlStore::RowKey(table, pk);
  EntryHandle entry = sql_->Get(region, key);
  if (!entry || entry->bytes.empty()) {
    return Status::NotFound("sql read miss: " + key);
  }
  auto row = Row::Deserialize(entry->bytes);
  if (!row.ok()) {
    return row.status();
  }
  ReadResult out;
  auto lineage_field = row->Get(kLineageField);
  if (lineage_field.has_value() && lineage_field->is_string()) {
    auto lineage = Lineage::Deserialize(lineage_field->as_string());
    if (lineage.ok()) {
      out.lineage = std::move(*lineage);
    }
  }
  row->Erase(kLineageField);
  out.lineage.Append(MakeWriteId(key, entry->version));
  out.row = std::move(*row);
  return out;
}

Status SqlShim::InsertCtx(Region region, const std::string& table, Row row) {
  return LineageApi::AppendWrite([&](const Lineage& lineage) {
    return FramedInsert(region, table, std::move(row), lineage);
  });
}

Result<Row> SqlShim::SelectByPkCtx(Region region, const std::string& table,
                                   const Value& pk) const {
  auto result = SelectByPk(region, table, pk);
  if (!result.ok()) {
    return result.status();
  }
  LineageApi::Transfer(result->lineage);
  return std::move(result->row);
}

}  // namespace antipode
