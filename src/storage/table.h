// In-memory relational table with a primary-key index and optional ordered
// secondary indexes, internally partitioned into data shards.
//
// Rows are addressed by a stable RowId assigned at insert time; RowIds are
// never reused while the table lives (deleted ids stay dead), which makes
// them safe identities for the lock manager to attach locks to. Restoring a
// deleted row under its original RowId is supported for undo/compensation.
//
// Sharding: a table may be created with S > 1 shards, each owning a disjoint
// slice of the rows plus its own pk index, secondary-index entries and latch.
// Rows are routed by the first primary-key column (an int64, e.g. the TPC-C
// warehouse id) modulo S, and the owning shard is encoded in the high bits
// of the RowId — so every id-addressed operation goes straight to its shard
// without consulting any shared structure, and lock-table partitioning stays
// uniform because distinct shards produce distinct RowId bit patterns.
// Keyed lookups and scans whose key/prefix names the first key column touch
// exactly one shard; unprefixed scans merge across shards in key order.
// The routing helpers are public because the lock hierarchy follows the
// shards: the transaction layer takes a statement's table intent lock on the
// table item of the one shard the statement touches (lock::ItemId::Table),
// and on every shard's item when it spans them all. With S == 1 (the
// default) ids, lock items and behavior are identical to the historical
// unsharded table, which the deterministic simulation golden relies on.
//
// The table performs no transactional concurrency control and no logging;
// those are the responsibility of the transaction layer above it (src/acc).
// It is, however, safe for physical concurrency: a per-shard shared_mutex
// latch serializes structural mutation against lookups, so the same code
// runs both under the simulation kernel (one active process at a time — the
// latch is uncontended and changes nothing) and under the real-thread
// runtime (src/runtime), where OS workers operate in parallel and workers
// bound to different warehouses never touch the same latch. A table that
// no transaction writes (TPC-C's ITEM) is frozen once it is loaded
// (Freeze): from then on every mutator fails with kFailedPrecondition and
// readers take no latch at all, since there is no writer to exclude. The
// flag is set under every shard's exclusive latch, so a writer that got in
// first has finished before any reader skips the latch.
//
// Row contents returned by Get() are protected by the caller's row locks,
// not by the latch: unordered_map guarantees reference stability, so a Row*
// stays valid across unrelated inserts/erases, and transaction-level row
// locks exclude writer/reader overlap on the same row.
//
// Indexes: the primary and secondary indexes are ordered maps keyed by the
// byte encoding of the key (EncodeKey in value.h), so every comparison is a
// memcmp and a prefix scan is a lower_bound plus a byte-prefix test. A
// secondary-index entry appends the RowId's big-endian bytes to the encoded
// index key: equal index keys order by RowId. Primary keys are immutable and
// RowIds are never reused, so a RowId found under a key stays bound to that
// key for as long as the row is live: a caller that looked a key up and then
// locked the row re-checks its binding with Get(id) != nullptr, not with a
// second index walk.

#ifndef ACCDB_STORAGE_TABLE_H_
#define ACCDB_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace accdb::storage {

using TableId = uint32_t;
using RowId = uint64_t;
using IndexId = uint32_t;

inline constexpr RowId kInvalidRowId = 0;

// RowId layout: the owning shard in the top 16 bits, a per-shard sequence
// number in the low 48. Shard 0 ids are plain sequence numbers, so a
// 1-shard table assigns the same ids it always has.
inline constexpr int kRowIdShardShift = 48;
inline constexpr RowId kRowIdSeqMask = (RowId{1} << kRowIdShardShift) - 1;
inline constexpr size_t kMaxTableShards = size_t{1} << 16;

constexpr RowId MakeRowId(size_t shard, RowId seq) {
  return (static_cast<RowId>(shard) << kRowIdShardShift) | seq;
}
constexpr size_t RowIdShard(RowId id) {
  return static_cast<size_t>(id >> kRowIdShardShift);
}
constexpr RowId RowIdSeq(RowId id) { return id & kRowIdSeqMask; }

struct ColumnDef {
  std::string name;
  ColumnType type;
};

// Row representation: one Value per schema column.
using Row = std::vector<Value>;

// Table schema: columns plus the (ordered) list of column positions forming
// the primary key.
struct Schema {
  std::vector<ColumnDef> columns;
  std::vector<int> key_columns;

  // Index of the named column, or -1.
  int ColumnIndex(std::string_view name) const;
  // Extracts the primary key of `row` per key_columns.
  CompositeKey KeyOf(const Row& row) const;
  // Validates that `row` matches the schema (arity and types).
  Status Validate(const Row& row) const;
};

class Table {
 public:
  // `shards` > 1 requires the first key column to be kInt64 (asserted): it
  // is the routing attribute.
  Table(TableId id, std::string name, Schema schema, size_t shards = 1);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t shards() const { return shards_.size(); }
  size_t size() const;

  // Makes the table read-only for the rest of its life: every later
  // Insert, InsertWithId, Update, UpdateColumns and Delete fails with
  // kFailedPrecondition, and readers stop taking the shard latches. The
  // transaction layer relies on it too: nothing can hold a write lock on a
  // frozen table, so its read locks are answered without the lock manager.
  void Freeze();
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }
  // kFailedPrecondition once the table is frozen: what every mutator then
  // returns (it checks under its shard's exclusive latch).
  Status CheckWritable() const;

  // Adds an ordered secondary index over the given column positions.
  // Must be called before rows are inserted (asserted).
  IndexId AddIndex(std::string name, std::vector<int> columns);

  // Column positions forming the given secondary index's key (the OCC write
  // buffer uses this to merge uncommitted inserts into index scans).
  const std::vector<int>& IndexColumns(IndexId index) const;

  // Inserts a row; fails with kAlreadyExists on a duplicate primary key.
  Result<RowId> Insert(const Row& row);

  // Insert with a publication hook: `before_publish` runs under the owning
  // shard's exclusive latch after the RowId is assigned and the row is
  // indexed, but before any other thread can observe it. The transaction
  // layer uses this to X-lock freshly inserted rows with no window in which
  // a concurrent scanner could see the row unlocked. The callback must not
  // re-enter this table.
  Result<RowId> Insert(const Row& row,
                       const std::function<void(RowId)>& before_publish);

  // Re-inserts a previously deleted row under its original id (undo path).
  // The id's shard bits must match where the row's key routes (checked).
  Status InsertWithId(RowId id, const Row& row);

  // nullptr if the id is not live.
  const Row* Get(RowId id) const;

  // Latched copy of the row: unlike Get(), the returned value is safe to use
  // without holding any transaction-level row lock, because the copy is made
  // under the shard's shared latch and every in-place mutation holds the
  // exclusive latch. This is the read primitive for lock-free readers (the
  // OCC and multi-version executors in src/cc). std::nullopt if not live.
  std::optional<Row> GetCopy(RowId id) const;

  // Replaces the whole row. Key columns must not change (use Delete+Insert
  // for key updates). Fails with kNotFound for dead ids.
  Status Update(RowId id, const Row& row);

  // Updates a subset of (non-key, non-secondary-indexed) columns in place.
  Status UpdateColumns(RowId id,
                       const std::vector<std::pair<int, Value>>& updates);

  Status Delete(RowId id);

  // Primary-key point lookup.
  std::optional<RowId> LookupPk(const CompositeKey& key) const;

  // All live rows whose primary key has `prefix` as a prefix, in key order.
  // A non-empty prefix touches one shard; an empty prefix merges all shards.
  std::vector<RowId> ScanPkPrefix(const CompositeKey& prefix) const;

  // First (smallest-key) row matching the primary-key prefix, if any.
  std::optional<RowId> MinPkPrefix(const CompositeKey& prefix) const;

  // All live rows whose secondary-index key equals `key`, in RowId order.
  std::vector<RowId> LookupIndex(IndexId index, const CompositeKey& key) const;

  // All live rows in index-key order whose index key has `prefix` as a
  // prefix. Ties on the full index key break by RowId.
  std::vector<RowId> ScanIndexPrefix(IndexId index,
                                     const CompositeKey& prefix) const;

  // Full scan in RowId order — shard-major, insertion order within a shard
  // (tests / consistency checks only).
  std::vector<RowId> ScanAll() const;

  // --- Routing ---

  // Shard owning the given primary key (or non-empty primary-key prefix).
  size_t ShardOfKey(const CompositeKey& key) const {
    return ShardOfValue(key[0]);
  }
  // Shard a row to be inserted routes to. A row too malformed to route
  // (Insert rejects it) maps to shard 0.
  size_t ShardOfRow(const Row& row) const;
  // The one shard a primary-key prefix, or a prefix of secondary index
  // `index`, resolves to; std::nullopt when it spans every shard (an empty
  // prefix, or an index not led by the routing attribute, of a sharded
  // table).
  std::optional<size_t> ShardOfPkPrefix(const CompositeKey& prefix) const;
  std::optional<size_t> ShardOfIndexPrefix(IndexId index,
                                           const CompositeKey& prefix) const;

 private:
  struct IndexDef {
    std::string name;
    std::vector<int> columns;
    // True when columns[0] is the routing attribute: every key/prefix
    // naming it resolves within one shard.
    bool routable = false;
  };

  // One data shard: rows, pk index and per-index entry maps, owned by `mu`.
  // Latch ordering: the transaction layer may request locks from inside
  // `before_publish` (shard latch -> lock-manager latch); the lock manager
  // never calls back into storage, so no cycle exists. Only Freeze holds
  // two shard latches at once, taking them in shard order.
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<RowId, Row> rows;
    // EncodeKey(primary key) -> RowId.
    std::map<std::string, RowId> pk_index;
    // Per secondary index: IndexEntry(encoded index key, RowId).
    std::vector<std::set<std::string>> index_entries;
    RowId next_seq = 1;
  };

  // Shard owning the given routing-attribute value.
  size_t ShardOfValue(const Value& value) const;

  // Secondary-index entry: the encoded index key, then the id's 8
  // big-endian bytes.
  static std::string IndexEntry(std::string key, RowId id);
  static RowId IndexEntryId(const std::string& entry);
  void IndexInsert(Shard& shard, RowId id, const Row& row);
  void IndexErase(Shard& shard, RowId id, const Row& row);
  // kInvalidArgument if a key or indexed column of `row` holds NaN.
  Status CheckKeyable(const Row& row) const;
  // The readers' latch on `shard`: shared, or none once the table is
  // frozen.
  std::shared_lock<std::shared_mutex> ReadLatch(const Shard& shard) const;

  const TableId id_;
  const std::string name_;
  const Schema schema_;

  std::vector<IndexDef> indexes_;
  // Double-typed primary-key and secondary-index columns (NaN-checked).
  std::vector<int> double_key_columns_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> frozen_{false};
};

}  // namespace accdb::storage

#endif  // ACCDB_STORAGE_TABLE_H_
