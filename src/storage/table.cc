#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace accdb::storage {

int Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

CompositeKey Schema::KeyOf(const Row& row) const {
  CompositeKey key;
  key.reserve(key_columns.size());
  for (int c : key_columns) key.push_back(row[c]);
  return key;
}

Status Schema::Validate(const Row& row) const {
  if (row.size() != columns.size()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu != schema arity %zu", row.size(),
                  columns.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != columns[i].type) {
      return Status::InvalidArgument(
          StrFormat("column %s: expected %s, got %s", columns[i].name.c_str(),
                    std::string(ColumnTypeName(columns[i].type)).c_str(),
                    std::string(ColumnTypeName(row[i].type())).c_str()));
    }
  }
  return Status::Ok();
}

Table::Table(TableId id, std::string name, Schema schema, size_t shards)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {
  assert(!schema_.key_columns.empty() && "table requires a primary key");
  if (shards < 1) shards = 1;
  assert(shards <= kMaxTableShards && "shard count exceeds RowId shard bits");
  assert((shards == 1 ||
          schema_.columns[schema_.key_columns[0]].type == ColumnType::kInt64) &&
         "sharding routes by the first key column, which must be an int64");
  for (int c : schema_.key_columns) {
    if (schema_.columns[c].type == ColumnType::kDouble) {
      double_key_columns_.push_back(c);
    }
  }
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t Table::ShardOfValue(const Value& value) const {
  const auto n = static_cast<int64_t>(shards_.size());
  if (n == 1) return 0;
  const int64_t m = value.AsInt64() % n;
  return static_cast<size_t>(m < 0 ? m + n : m);
}

size_t Table::ShardOfRow(const Row& row) const {
  if (shards_.size() == 1) return 0;
  const auto c = static_cast<size_t>(schema_.key_columns[0]);
  if (c >= row.size() || row[c].type() != ColumnType::kInt64) return 0;
  return ShardOfValue(row[c]);
}

std::optional<size_t> Table::ShardOfPkPrefix(
    const CompositeKey& prefix) const {
  if (shards_.size() == 1) return 0;
  if (prefix.empty()) return std::nullopt;
  return ShardOfKey(prefix);
}

std::optional<size_t> Table::ShardOfIndexPrefix(
    IndexId index, const CompositeKey& prefix) const {
  assert(index < indexes_.size());
  if (shards_.size() == 1) return 0;
  if (!indexes_[index].routable || prefix.empty()) return std::nullopt;
  return ShardOfKey(prefix);
}

void Table::Freeze() {
  std::vector<std::unique_lock<std::shared_mutex>> latches;
  latches.reserve(shards_.size());
  for (auto& shard : shards_) latches.emplace_back(shard->mu);
  frozen_.store(true, std::memory_order_release);
}

Status Table::CheckWritable() const {
  if (!frozen()) return Status::Ok();
  return Status::FailedPrecondition(name_ + " is read-only");
}

std::shared_lock<std::shared_mutex> Table::ReadLatch(
    const Shard& shard) const {
  if (frozen()) return {};
  return std::shared_lock<std::shared_mutex>(shard.mu);
}

size_t Table::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(*shard);
    total += shard->rows.size();
  }
  return total;
}

IndexId Table::AddIndex(std::string name, std::vector<int> columns) {
  assert(!columns.empty());
  const bool routable = columns[0] == schema_.key_columns[0];
  for (int c : columns) {
    if (schema_.columns[c].type == ColumnType::kDouble) {
      double_key_columns_.push_back(c);
    }
  }
  indexes_.push_back(IndexDef{std::move(name), std::move(columns), routable});
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> latch(shard->mu);
    assert(shard->rows.empty() && "indexes must be created before inserts");
    shard->index_entries.emplace_back();
  }
  return static_cast<IndexId>(indexes_.size() - 1);
}

const std::vector<int>& Table::IndexColumns(IndexId index) const {
  assert(index < indexes_.size());
  return indexes_[index].columns;
}

std::string Table::IndexEntry(std::string key, RowId id) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>(id >> shift));
  }
  return key;
}

RowId Table::IndexEntryId(const std::string& entry) {
  RowId id = 0;
  for (size_t i = entry.size() - 8; i < entry.size(); ++i) {
    id = (id << 8) | static_cast<unsigned char>(entry[i]);
  }
  return id;
}

void Table::IndexInsert(Shard& shard, RowId id, const Row& row) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    shard.index_entries[i].insert(
        IndexEntry(EncodeKeyColumns(row, indexes_[i].columns), id));
  }
}

void Table::IndexErase(Shard& shard, RowId id, const Row& row) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    shard.index_entries[i].erase(
        IndexEntry(EncodeKeyColumns(row, indexes_[i].columns), id));
  }
}

Status Table::CheckKeyable(const Row& row) const {
  for (int c : double_key_columns_) {
    if (std::isnan(row[c].AsDouble())) {
      return Status::InvalidArgument(StrFormat(
          "column %s: NaN in a key", schema_.columns[c].name.c_str()));
    }
  }
  return Status::Ok();
}

Result<RowId> Table::Insert(const Row& row) {
  return Insert(row, nullptr);
}

Result<RowId> Table::Insert(const Row& row,
                            const std::function<void(RowId)>& before_publish) {
  ACCDB_RETURN_IF_ERROR(schema_.Validate(row));
  ACCDB_RETURN_IF_ERROR(CheckKeyable(row));
  const size_t s = ShardOfValue(row[schema_.key_columns[0]]);
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> latch(shard.mu);
  ACCDB_RETURN_IF_ERROR(CheckWritable());
  auto [slot, inserted] = shard.pk_index.try_emplace(
      EncodeKeyColumns(row, schema_.key_columns), kInvalidRowId);
  if (!inserted) {
    return Status::AlreadyExists(name_ + " pk " +
                                 CompositeKeyToString(schema_.KeyOf(row)));
  }
  RowId id = MakeRowId(s, shard.next_seq++);
  slot->second = id;
  IndexInsert(shard, id, row);
  shard.rows.emplace(id, row);
  // Still under the exclusive latch: the id exists in every index but no
  // reader has been able to observe it yet.
  if (before_publish) before_publish(id);
  return id;
}

Status Table::InsertWithId(RowId id, const Row& row) {
  ACCDB_RETURN_IF_ERROR(schema_.Validate(row));
  ACCDB_RETURN_IF_ERROR(CheckKeyable(row));
  const size_t s = ShardOfValue(row[schema_.key_columns[0]]);
  if (RowIdShard(id) != s) {
    return Status::InvalidArgument(
        StrFormat("row id %llu belongs to shard %zu, key routes to %zu",
                  static_cast<unsigned long long>(id), RowIdShard(id), s));
  }
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> latch(shard.mu);
  ACCDB_RETURN_IF_ERROR(CheckWritable());
  if (shard.rows.contains(id)) {
    return Status::AlreadyExists(StrFormat("row id %llu live",
                                           static_cast<unsigned long long>(id)));
  }
  if (!shard.pk_index
           .try_emplace(EncodeKeyColumns(row, schema_.key_columns), id)
           .second) {
    return Status::AlreadyExists(name_ + " pk " +
                                 CompositeKeyToString(schema_.KeyOf(row)));
  }
  IndexInsert(shard, id, row);
  shard.rows.emplace(id, row);
  shard.next_seq = std::max(shard.next_seq, RowIdSeq(id) + 1);
  return Status::Ok();
}

const Row* Table::Get(RowId id) const {
  const size_t s = RowIdShard(id);
  if (s >= shards_.size()) return nullptr;
  const Shard& shard = *shards_[s];
  std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
  auto it = shard.rows.find(id);
  return it == shard.rows.end() ? nullptr : &it->second;
}

std::optional<Row> Table::GetCopy(RowId id) const {
  const size_t s = RowIdShard(id);
  if (s >= shards_.size()) return std::nullopt;
  const Shard& shard = *shards_[s];
  std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
  auto it = shard.rows.find(id);
  if (it == shard.rows.end()) return std::nullopt;
  return it->second;
}

Status Table::Update(RowId id, const Row& row) {
  const size_t s = RowIdShard(id);
  if (s >= shards_.size()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> latch(shard.mu);
  ACCDB_RETURN_IF_ERROR(CheckWritable());
  auto it = shard.rows.find(id);
  if (it == shard.rows.end()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  ACCDB_RETURN_IF_ERROR(schema_.Validate(row));
  ACCDB_RETURN_IF_ERROR(CheckKeyable(row));
  if (schema_.KeyOf(row) != schema_.KeyOf(it->second)) {
    return Status::InvalidArgument("primary key update not supported");
  }
  IndexErase(shard, id, it->second);
  it->second = row;
  IndexInsert(shard, id, it->second);
  return Status::Ok();
}

Status Table::UpdateColumns(
    RowId id, const std::vector<std::pair<int, Value>>& updates) {
  const size_t s = RowIdShard(id);
  if (s >= shards_.size()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> latch(shard.mu);
  ACCDB_RETURN_IF_ERROR(CheckWritable());
  auto it = shard.rows.find(id);
  if (it == shard.rows.end()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  // Reject key-column updates; secondary-indexed column updates go through
  // the index-maintaining path.
  bool touches_index = false;
  for (const auto& [col, value] : updates) {
    if (col < 0 || col >= static_cast<int>(schema_.columns.size())) {
      return Status::InvalidArgument(StrFormat("bad column %d", col));
    }
    if (value.type() != schema_.columns[col].type) {
      return Status::InvalidArgument(
          StrFormat("column %s type mismatch",
                    schema_.columns[col].name.c_str()));
    }
    if (std::find(schema_.key_columns.begin(), schema_.key_columns.end(),
                  col) != schema_.key_columns.end()) {
      return Status::InvalidArgument("primary key update not supported");
    }
    for (const auto& index : indexes_) {
      if (std::find(index.columns.begin(), index.columns.end(), col) !=
          index.columns.end()) {
        touches_index = true;
      }
    }
  }
  if (touches_index) {
    Row updated = it->second;
    for (const auto& [col, value] : updates) updated[col] = value;
    ACCDB_RETURN_IF_ERROR(CheckKeyable(updated));
    IndexErase(shard, id, it->second);
    it->second = std::move(updated);
    IndexInsert(shard, id, it->second);
    return Status::Ok();
  }
  for (const auto& [col, value] : updates) it->second[col] = value;
  return Status::Ok();
}

Status Table::Delete(RowId id) {
  const size_t s = RowIdShard(id);
  if (s >= shards_.size()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> latch(shard.mu);
  ACCDB_RETURN_IF_ERROR(CheckWritable());
  auto it = shard.rows.find(id);
  if (it == shard.rows.end()) {
    return Status::NotFound(StrFormat("row id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  shard.pk_index.erase(EncodeKeyColumns(it->second, schema_.key_columns));
  IndexErase(shard, id, it->second);
  shard.rows.erase(it);
  return Status::Ok();
}

std::optional<RowId> Table::LookupPk(const CompositeKey& key) const {
  const std::string encoded = EncodeKey(key);
  const Shard& shard = *shards_[ShardOfKey(key)];
  std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
  auto it = shard.pk_index.find(encoded);
  if (it == shard.pk_index.end()) return std::nullopt;
  return it->second;
}


std::vector<RowId> Table::ScanPkPrefix(const CompositeKey& prefix) const {
  const std::string encoded = EncodeKey(prefix);
  std::vector<RowId> out;
  if (std::optional<size_t> s = ShardOfPkPrefix(prefix)) {
    const Shard& shard = *shards_[*s];
    std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
    for (auto it = shard.pk_index.lower_bound(encoded);
         it != shard.pk_index.end() && it->first.starts_with(encoded); ++it) {
      out.push_back(it->second);
    }
    return out;
  }
  // Unprefixed scan of a sharded table: collect per shard (one latch at a
  // time), then merge into global key order.
  std::vector<std::pair<std::string, RowId>> merged;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(*shard);
    merged.insert(merged.end(), shard->pk_index.begin(),
                  shard->pk_index.end());
  }
  std::sort(merged.begin(), merged.end());
  out.reserve(merged.size());
  for (auto& [key, id] : merged) out.push_back(id);
  return out;
}

std::optional<RowId> Table::MinPkPrefix(const CompositeKey& prefix) const {
  if (std::optional<size_t> s = ShardOfPkPrefix(prefix)) {
    const std::string encoded = EncodeKey(prefix);
    const Shard& shard = *shards_[*s];
    std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
    auto it = shard.pk_index.lower_bound(encoded);
    if (it == shard.pk_index.end() || !it->first.starts_with(encoded)) {
      return std::nullopt;
    }
    return it->second;
  }
  std::optional<RowId> best;
  std::string best_key;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(*shard);
    auto it = shard->pk_index.begin();
    if (it == shard->pk_index.end()) continue;
    if (!best.has_value() || it->first < best_key) {
      best = it->second;
      best_key = it->first;
    }
  }
  return best;
}

std::vector<RowId> Table::LookupIndex(IndexId index,
                                      const CompositeKey& key) const {
  assert(index < indexes_.size());
  std::vector<RowId> out;
  // Only a full index key can equal an entry's key.
  if (key.size() != indexes_[index].columns.size()) return out;
  const std::string encoded = EncodeKey(key);
  auto collect = [&](const Shard& shard) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
    const auto& entries = shard.index_entries[index];
    for (auto it = entries.lower_bound(encoded);
         it != entries.end() && it->starts_with(encoded); ++it) {
      out.push_back(IndexEntryId(*it));
    }
  };
  if (std::optional<size_t> s = ShardOfIndexPrefix(index, key)) {
    collect(*shards_[*s]);
    return out;  // Entries of one key are in RowId order.
  }
  for (const auto& shard : shards_) collect(*shard);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RowId> Table::ScanIndexPrefix(IndexId index,
                                          const CompositeKey& prefix) const {
  assert(index < indexes_.size());
  const std::string encoded = EncodeKey(prefix);
  std::vector<RowId> out;
  if (std::optional<size_t> s = ShardOfIndexPrefix(index, prefix)) {
    const Shard& shard = *shards_[*s];
    std::shared_lock<std::shared_mutex> latch = ReadLatch(shard);
    const auto& entries = shard.index_entries[index];
    for (auto it = entries.lower_bound(encoded);
         it != entries.end() && it->starts_with(encoded); ++it) {
      out.push_back(IndexEntryId(*it));
    }
    return out;
  }
  // Merge across shards. Entries end in their RowId, so sorting them orders
  // by index key and then by RowId, whatever the shard count.
  std::vector<std::string> merged;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(*shard);
    const auto& entries = shard->index_entries[index];
    for (auto it = entries.lower_bound(encoded);
         it != entries.end() && it->starts_with(encoded); ++it) {
      merged.push_back(*it);
    }
  }
  std::sort(merged.begin(), merged.end());
  out.reserve(merged.size());
  for (const std::string& entry : merged) out.push_back(IndexEntryId(entry));
  return out;
}

std::vector<RowId> Table::ScanAll() const {
  std::vector<RowId> out;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> latch = ReadLatch(*shard);
    out.reserve(out.size() + shard->rows.size());
    for (const auto& [id, row] : shard->rows) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace accdb::storage
