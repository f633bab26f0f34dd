// The data-access surface shared by the two backends that take no locks:
// the OCC read-set/write buffer (occ.h) and the MVCC snapshot reader
// (version_store.h). The transaction layer routes every statement of such a
// transaction through this interface; transactions that lock (ACC, strict
// 2PL, MVCC writers) never reach it.
//
// Like the rest of src/cc, this depends only on storage/common/lock
// vocabulary, never on src/acc.

#ifndef ACCDB_CC_LOCK_FREE_ACCESS_H_
#define ACCDB_CC_LOCK_FREE_ACCESS_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/row_write.h"
#include "storage/table.h"

namespace accdb::cc {

class LockFreeAccess {
 public:
  using RowPair = std::pair<storage::RowId, storage::Row>;

  virtual ~LockFreeAccess() = default;

  // --- Reads ---

  // `bound_id` (if set) receives the RowId the key resolved to.
  virtual Result<storage::Row> ReadByKey(const storage::Table& table,
                                         const storage::CompositeKey& key,
                                         storage::RowId* bound_id) = 0;
  virtual Result<storage::Row> ReadById(const storage::Table& table,
                                        storage::RowId id) = 0;
  virtual Result<std::vector<RowPair>> ScanPkPrefix(
      const storage::Table& table, const storage::CompositeKey& prefix) = 0;
  virtual Result<std::optional<RowPair>> MinPkPrefix(
      const storage::Table& table, const storage::CompositeKey& prefix) = 0;
  virtual Result<std::vector<RowPair>> ScanIndexPrefix(
      const storage::Table& table, storage::IndexId index,
      const storage::CompositeKey& prefix) = 0;

  // --- Writes ---
  // Refused by default: a snapshot transaction is read-only.

  virtual Result<storage::RowId> Insert(storage::Table& /*table*/,
                                        storage::Row /*row*/) {
    return ReadOnly();
  }
  virtual Status Update(
      storage::Table& /*table*/, storage::RowId /*id*/,
      const std::vector<std::pair<int, storage::Value>>& /*updates*/) {
    return ReadOnly();
  }
  virtual Status Delete(storage::Table& /*table*/, storage::RowId /*id*/) {
    return ReadOnly();
  }

  // Ends the transaction successfully: makes its writes visible, pushes one
  // RowWrite per table mutation onto `applied` (when non-null), then runs
  // `log_commit` before any other transaction can build on those writes.
  // The default has nothing to validate or apply (a snapshot reader).
  virtual Status Commit(std::vector<storage::RowWrite>* /*applied*/,
                        const std::function<void()>& log_commit) {
    if (log_commit) log_commit();
    return Status::Ok();
  }

 private:
  static Status ReadOnly() {
    return Status::Internal("snapshot transaction is read-only");
  }
};

}  // namespace accdb::cc

#endif  // ACCDB_CC_LOCK_FREE_ACCESS_H_
