#include "cc/version_store.h"

#include <algorithm>
#include <cassert>

namespace accdb::cc {

void VersionStore::RegisterPending(lock::TxnId txn, const lock::ItemId& item,
                                   Kind kind, storage::Row before) {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<Entry>& chain = chains_[item];
  if (!chain.empty() && chain.back().ts == 0 && chain.back().txn == txn) {
    // Second write of the same transaction to the same row: the first
    // entry already carries the as-of-snapshot image. (The X lock
    // guarantees no foreign pending entry can sit at the tail.)
    return;
  }
  Entry entry;
  entry.txn = txn;
  entry.kind = kind;
  entry.before = std::move(before);
  chain.push_back(std::move(entry));
  pending_[txn].push_back(item);
}

void VersionStore::CommitTxn(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  const uint64_t ts = ++clock_;
  for (const lock::ItemId& item : it->second) {
    std::vector<Entry>& chain = chains_[item];
    for (Entry& entry : chain) {
      if (entry.ts == 0 && entry.txn == txn) entry.ts = ts;
    }
  }
  pending_.erase(it);
  if (++commits_since_gc_ >= 256) {
    commits_since_gc_ = 0;
    GcLocked();
  }
}

void VersionStore::AbortTxn(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  for (const lock::ItemId& item : it->second) {
    auto chain_it = chains_.find(item);
    if (chain_it == chains_.end()) continue;
    std::vector<Entry>& chain = chain_it->second;
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [txn](const Entry& entry) {
                                 return entry.ts == 0 && entry.txn == txn;
                               }),
                chain.end());
    if (chain.empty()) chains_.erase(chain_it);
  }
  pending_.erase(it);
}

uint64_t VersionStore::AcquireSnapshot() {
  std::lock_guard<std::mutex> guard(mu_);
  const uint64_t snapshot = clock_;
  ++snapshots_[snapshot];
  return snapshot;
}

void VersionStore::ReleaseSnapshot(uint64_t snapshot) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = snapshots_.find(snapshot);
  assert(it != snapshots_.end() && "unbalanced snapshot release");
  if (it == snapshots_.end()) return;
  if (--it->second == 0) snapshots_.erase(it);
}

VersionStore::Resolution VersionStore::Resolve(const lock::ItemId& item,
                                               uint64_t snapshot,
                                               storage::Row* image) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = chains_.find(item);
  if (it == chains_.end()) return Resolution::kUseLive;
  // First entry past the snapshot (chain order == commit-ts order with
  // pendings at the tail): its before-image is the snapshot's value.
  for (const Entry& entry : it->second) {
    if (entry.ts != 0 && entry.ts <= snapshot) continue;
    if (entry.kind == Kind::kCreate) return Resolution::kInvisible;
    if (image != nullptr) *image = entry.before;
    return Resolution::kUseImage;
  }
  return Resolution::kUseLive;
}

uint64_t VersionStore::GcWatermark() const {
  std::lock_guard<std::mutex> guard(mu_);
  return snapshots_.empty() ? clock_ : snapshots_.begin()->first;
}

size_t VersionStore::Gc() {
  std::lock_guard<std::mutex> guard(mu_);
  return GcLocked();
}

size_t VersionStore::GcLocked() {
  const uint64_t watermark =
      snapshots_.empty() ? clock_ : snapshots_.begin()->first;
  size_t pruned = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    std::vector<Entry>& chain = it->second;
    const size_t before = chain.size();
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [watermark](const Entry& entry) {
                                 return entry.ts != 0 &&
                                        entry.ts <= watermark;
                               }),
                chain.end());
    pruned += before - chain.size();
    it = chain.empty() ? chains_.erase(it) : std::next(it);
  }
  return pruned;
}

uint64_t VersionStore::clock() const {
  std::lock_guard<std::mutex> guard(mu_);
  return clock_;
}

size_t VersionStore::entry_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [item, chain] : chains_) n += chain.size();
  return n;
}

size_t VersionStore::active_snapshots() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [ts, refs] : snapshots_) n += static_cast<size_t>(refs);
  return n;
}

// --- SnapshotReader ---

std::optional<storage::Row> SnapshotReader::Reconstruct(
    const storage::Table& table, storage::RowId id) const {
  // Copy first, resolve second: a writer racing in between leaves a chain
  // entry the resolve pass finds (see version_store.h header comment).
  std::optional<storage::Row> copy = table.GetCopy(id);
  storage::Row image;
  switch (store_->Resolve(lock::ItemId::Row(table.id(), id), snapshot_,
                          &image)) {
    case VersionStore::Resolution::kInvisible:
      return std::nullopt;
    case VersionStore::Resolution::kUseImage:
      return image;
    case VersionStore::Resolution::kUseLive:
      return copy;
  }
  return copy;
}

Result<storage::Row> SnapshotReader::ReadById(const storage::Table& table,
                                              storage::RowId id) {
  std::optional<storage::Row> row = Reconstruct(table, id);
  if (!row.has_value()) return Status::NotFound(table.name() + " row");
  return *std::move(row);
}

Result<storage::Row> SnapshotReader::ReadByKey(
    const storage::Table& table, const storage::CompositeKey& key,
    storage::RowId* bound_id) {
  std::optional<storage::RowId> id = table.LookupPk(key);
  if (!id.has_value()) {
    return Status::NotFound(table.name() + " " +
                            storage::CompositeKeyToString(key));
  }
  if (bound_id != nullptr) *bound_id = *id;
  std::optional<storage::Row> row = Reconstruct(table, *id);
  if (!row.has_value()) {
    return Status::NotFound(table.name() + " " +
                            storage::CompositeKeyToString(key));
  }
  return *std::move(row);
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
SnapshotReader::ScanPkPrefix(const storage::Table& table,
                             const storage::CompositeKey& prefix) {
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  for (storage::RowId id : table.ScanPkPrefix(prefix)) {
    std::optional<storage::Row> row = Reconstruct(table, id);
    if (row.has_value()) out.emplace_back(id, *std::move(row));
  }
  return out;
}

Result<std::optional<std::pair<storage::RowId, storage::Row>>>
SnapshotReader::MinPkPrefix(const storage::Table& table,
                            const storage::CompositeKey& prefix) {
  // A created-after-snapshot row can hold the live minimum while being
  // invisible here, so walk the full prefix range and take the first
  // visible row (the scan is key-ordered).
  for (storage::RowId id : table.ScanPkPrefix(prefix)) {
    std::optional<storage::Row> row = Reconstruct(table, id);
    if (row.has_value()) {
      return std::optional<std::pair<storage::RowId, storage::Row>>(
          std::make_pair(id, *std::move(row)));
    }
  }
  return std::optional<std::pair<storage::RowId, storage::Row>>();
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
SnapshotReader::ScanIndexPrefix(const storage::Table& table,
                                storage::IndexId index,
                                const storage::CompositeKey& prefix) {
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  for (storage::RowId id : table.ScanIndexPrefix(index, prefix)) {
    std::optional<storage::Row> row = Reconstruct(table, id);
    if (row.has_value()) out.emplace_back(id, *std::move(row));
  }
  return out;
}

}  // namespace accdb::cc
