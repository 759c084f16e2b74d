// Shim for the MySQL-like SqlStore. `InstrumentTable` performs the one-time
// schema change (§6.4): a lineage column plus a secondary index on it —
// the index is what makes MySQL's Table 3 overhead stand out (~14 KB/row).

#ifndef SRC_ANTIPODE_SQL_SHIM_H_
#define SRC_ANTIPODE_SQL_SHIM_H_

#include <string>

#include "src/antipode/lineage_api.h"
#include "src/antipode/watermark_shim.h"
#include "src/store/sql_store.h"

namespace antipode {

class SqlShim : public WatermarkShim {
 public:
  explicit SqlShim(SqlStore* store) : WatermarkShim(store), sql_(store) {}

  // Adds the lineage column (+ index) to `table`. Call once per table.
  Status InstrumentTable(const std::string& table, bool with_index = true);

  struct ReadResult {
    Row row;  // lineage column stripped
    Lineage lineage;
  };

  // ℒ' ← insert(table, ⟨row, ℒ⟩).
  Result<Lineage> Insert(Region region, const std::string& table, Row row, Lineage lineage);

  // NotFound when no row with `pk` is visible at `region`; InvalidArgument
  // when the stored bytes do not decode as a row.
  Result<ReadResult> SelectByPk(Region region, const std::string& table, const Value& pk) const;

  Status InsertCtx(Region region, const std::string& table, Row row);
  Result<Row> SelectByPkCtx(Region region, const std::string& table, const Value& pk) const;

 private:
  // Inserts `row` with `lineage` in its lineage column; returns the write's
  // identifier.
  Result<WriteId> FramedInsert(Region region, const std::string& table, Row row,
                               const Lineage& lineage);

  SqlStore* sql_;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_SQL_SHIM_H_
