// One physical row write, as the write-ahead log records it for replay.
//
// Inserts carry the full row and its assigned RowId (replay re-inserts
// under the same id, so later writes that reference the row by id still
// resolve); updates carry the updated (column, value) pairs; deletes just
// the id. The transaction layer builds these as statements execute, the OCC
// backend (src/cc) as its buffered writes apply at commit, and the WAL
// (src/acc/wal.h) serializes and replays them.

#ifndef ACCDB_STORAGE_ROW_WRITE_H_
#define ACCDB_STORAGE_ROW_WRITE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace accdb::storage {

struct RowWrite {
  enum class Kind : uint8_t { kInsert, kUpdate, kDelete };

  Kind kind = Kind::kUpdate;
  TableId table = 0;
  RowId row = kInvalidRowId;
  Row row_data;                                // kInsert.
  std::vector<std::pair<int, Value>> columns;  // kUpdate.
};

}  // namespace accdb::storage

#endif  // ACCDB_STORAGE_ROW_WRITE_H_
