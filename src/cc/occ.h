// Optimistic concurrency control backend (ExecMode::kOptimistic).
//
// A transaction runs with no locks at all: every read records the item's
// commit-version in a read set and every write is buffered locally (the
// table is untouched until commit). At commit, backward validation runs
// under one short critical section — every read item's version must be
// unchanged and every buffered insert's primary key must still be absent —
// and on success the write buffer is applied and the written items' versions
// bumped before the section ends. A validation failure surfaces as
// kDeadlock so the engine's existing whole-transaction restart machinery
// re-runs the program.
//
// Correctness of the lock-free read against concurrent appliers: a reader
// loads the version *before* copying the row (Table::GetCopy latches the
// copy), and an applier writes the row *before* bumping the version — so a
// read that overlaps an apply either sees the pre-apply version (validation
// then fails against the bumped version) or the post-apply version with the
// post-apply row. Torn rows are impossible (the copy itself is latched).
//
// Deliberate scope limits:
//   * Absence is not validated (no range/phantom protection beyond
//     insert-key re-checks). A read that found *no* row leaves nothing in
//     the read set, so a concurrent insert into the scanned range is not
//     detected. TPC-C's accesses are keyed point reads and scans over
//     monotone key ranges owned by their writers, so the C1–C13 checker
//     stays clean; workloads needing full serializability under OCC would
//     need next-key or predicate validation on top.
//   * The version table grows without bound: one entry per (table, row)
//     ever written by a committed optimistic transaction, including rows
//     since deleted (e.g. new_order rows consumed by Delivery). Entries of
//     deleted rows cannot simply be erased — an absent entry reads as
//     version 0, so erasure would let a transaction that copied the row
//     pre-delete (when its version was still 0) validate against the
//     deleted row. Safe pruning needs an active-transaction watermark;
//     until then, long occ-mode runs hold memory proportional to the total
//     distinct rows written.
//   * A doomed execution (one whose commit-time validation is going to
//     fail) may transiently observe a duplicate of its own buffered insert
//     key if another transaction commits the same key after Insert()'s
//     advisory check; scans resolve the collision in favour of the
//     buffered row, so callers never see the same key twice.
//
// This layer depends only on storage/common/lock-vocabulary headers — never
// on src/acc — so the engine can own it without a dependency cycle.

#ifndef ACCDB_CC_OCC_H_
#define ACCDB_CC_OCC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/lock_free_access.h"
#include "common/status.h"
#include "lock/types.h"
#include "storage/row_write.h"
#include "storage/table.h"

namespace accdb::cc {

// Buffered RowIds carry this bit: they exist only inside one transaction's
// write buffer, are never handed to the lock manager or the table, and are
// translated to real ids when the insert applies at commit. Real ids cannot
// collide with them (the table's shard field occupies bits 48..63 and shard
// counts are capped far below 2^15).
inline constexpr storage::RowId kOccVirtualBit = storage::RowId{1} << 63;

inline constexpr bool IsOccVirtual(storage::RowId id) {
  return (id & kOccVirtualBit) != 0;
}

// Engine-owned commit-version table: one monotone counter per item ever
// written by a committed optimistic transaction (absent item == version 0).
// Readers snapshot versions under a shared latch; appliers bump under the
// exclusive latch while additionally holding commit_mutex(), which
// serializes the whole validate+apply critical sections against each other.
class OccVersionTable {
 public:
  uint64_t Version(const lock::ItemId& item) const {
    std::shared_lock<std::shared_mutex> latch(mu_);
    auto it = versions_.find(item);
    return it == versions_.end() ? 0 : it->second;
  }

  // Caller must hold commit_mutex().
  void Bump(const lock::ItemId& item) {
    std::unique_lock<std::shared_mutex> latch(mu_);
    ++versions_[item];
  }

  std::mutex& commit_mutex() { return commit_mu_; }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<lock::ItemId, uint64_t, lock::ItemIdHash> versions_;
  std::mutex commit_mu_;
};

// Per-transaction-attempt OCC state: the read set (item -> first-observed
// version), the write buffer (updates/deletes of committed rows, keyed by
// item, applied in first-write order), and buffered inserts under virtual
// RowIds. All read methods overlay the buffer on the committed table state
// so the transaction reads its own writes.
class OccBuffer : public LockFreeAccess {
 public:
  explicit OccBuffer(OccVersionTable* versions) : versions_(versions) {}

  OccBuffer(const OccBuffer&) = delete;
  OccBuffer& operator=(const OccBuffer&) = delete;

  // --- Reads (overlay buffered writes on committed state) ---

  // A key that resolves to this transaction's own buffered insert binds
  // `bound_id` to its virtual id.
  Result<storage::Row> ReadByKey(const storage::Table& table,
                                 const storage::CompositeKey& key,
                                 storage::RowId* bound_id) override;
  Result<storage::Row> ReadById(const storage::Table& table,
                                storage::RowId id) override;
  Result<std::vector<RowPair>> ScanPkPrefix(
      const storage::Table& table,
      const storage::CompositeKey& prefix) override;
  Result<std::optional<RowPair>> MinPkPrefix(
      const storage::Table& table,
      const storage::CompositeKey& prefix) override;
  Result<std::vector<RowPair>> ScanIndexPrefix(
      const storage::Table& table, storage::IndexId index,
      const storage::CompositeKey& prefix) override;

  // --- Buffered writes ---

  Result<storage::RowId> Insert(storage::Table& table,
                                storage::Row row) override;
  Status Update(
      storage::Table& table, storage::RowId id,
      const std::vector<std::pair<int, storage::Value>>& updates) override;
  Status Delete(storage::Table& table, storage::RowId id) override;

  // Validate + apply under the version table's commit mutex. On success the
  // buffered writes are in the tables, their versions bumped, and (when
  // `applied` is non-null) one RowWrite per table mutation pushed in apply
  // order; `log_commit` (when set) then runs while the mutex is STILL
  // HELD, after `applied` is complete. The caller appends its WAL commit
  // record there: a dependent transaction can only read these writes and
  // then validate+log by taking the same mutex, so its record necessarily
  // lands at a higher LSN — recoverability needs visibility order and log
  // order to coincide. Failure returns kDeadlock (the engine restarts the
  // transaction), leaves the tables untouched, and never calls
  // `log_commit`.
  Status Commit(std::vector<storage::RowWrite>* applied,
                const std::function<void()>& log_commit) override;

  size_t read_set_size() const { return reads_.size(); }

 private:
  struct Write {
    enum class Kind : uint8_t { kUpdate, kDelete };
    Kind kind = Kind::kUpdate;
    storage::Table* table = nullptr;
    // Full after-image for read-your-writes...
    storage::Row after;
    // ...plus the column-update list actually applied at commit (and
    // replayed by WAL recovery), in statement order.
    std::vector<std::pair<int, storage::Value>> columns;
  };

  struct BufferedInsert {
    storage::Table* table = nullptr;
    storage::Row row;
    storage::CompositeKey key;
  };

  // Records the committed version of `item`, a row of `table`, the first
  // time it is observed. Must be called BEFORE the row copy is taken (see
  // file comment). A frozen table's rows are skipped: no commit can bump
  // their version, so they could never fail validation.
  void RecordRead(const storage::Table& table, const lock::ItemId& item);

  // True while every version in the read set is still current.
  bool ReadSetCurrent() const;

  // The buffered write for a committed row, or nullptr.
  const Write* FindWrite(const lock::ItemId& item) const;

  // Buffered inserts by storage::EncodeKey(primary key) -> virtual id.
  using InsertKeys = std::map<std::string, storage::RowId>;

  // Entries of insert_keys_ for `table` whose encoded key starts with
  // `encoded_prefix`, in key order.
  std::vector<InsertKeys::const_iterator> MatchingInserts(
      const storage::Table& table, const std::string& encoded_prefix) const;

  OccVersionTable* versions_;

  std::unordered_map<lock::ItemId, uint64_t, lock::ItemIdHash> reads_;
  std::unordered_map<lock::ItemId, Write, lock::ItemIdHash> writes_;
  std::vector<lock::ItemId> write_order_;  // First-write order for apply.
  // Buffered inserts by virtual id (ordered: apply follows insertion order,
  // so real RowIds are assigned in program order) and by (table, encoded
  // key) for scan overlays and duplicate checks. Scans merge the overlay
  // with storage in the same byte order the table's indexes use.
  std::map<storage::RowId, BufferedInsert> inserts_;
  std::unordered_map<storage::TableId, InsertKeys> insert_keys_;
  storage::RowId next_virtual_ = 0;
};

}  // namespace accdb::cc

#endif  // ACCDB_CC_OCC_H_
