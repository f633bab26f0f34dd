#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/table.h"
#include "storage/value.h"

namespace accdb::storage {
namespace {

Schema TwoColSchema() {
  Schema schema;
  schema.columns = {{"id", ColumnType::kInt64}, {"name", ColumnType::kString}};
  schema.key_columns = {0};
  return schema;
}

// --- Value / CompositeKey ---

TEST(ValueTest, Types) {
  EXPECT_EQ(Value(int64_t{5}).type(), ColumnType::kInt64);
  EXPECT_EQ(Value(1.5).type(), ColumnType::kDouble);
  EXPECT_EQ(Value(Money::FromCents(3)).type(), ColumnType::kMoney);
  EXPECT_EQ(Value("abc").type(), ColumnType::kString);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(7).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(Money::FromCents(10)).AsMoney().cents(), 10);
  EXPECT_EQ(Value(std::string("x")).AsString(), "x");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_FALSE(Value(3) == Value(4));
  EXPECT_FALSE(Value(3) == Value("3"));
  EXPECT_LT(EncodeKey(Key(3)), EncodeKey(Key(4)));
  EXPECT_LT(EncodeKey(Key("a")), EncodeKey(Key("b")));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value(Money::FromCents(150)).ToString(), "$1.50");
}

bool KeyLess(const CompositeKey& a, const CompositeKey& b) {
  return EncodeKey(a) < EncodeKey(b);
}

TEST(CompositeKeyTest, LexicographicOrder) {
  EXPECT_TRUE(KeyLess(Key(1, 2), Key(1, 3)));
  EXPECT_TRUE(KeyLess(Key(1, 9), Key(2, 0)));
  EXPECT_FALSE(KeyLess(Key(2, 0), Key(1, 9)));
}

TEST(CompositeKeyTest, PrefixSortsFirst) {
  EXPECT_TRUE(KeyLess(Key(1), Key(1, 0)));
  EXPECT_FALSE(KeyLess(Key(1, 0), Key(1)));
}

// --- Key encoding vs. a lexicographic reference ---

int Sign(int c) { return (c > 0) - (c < 0); }

template <typename T>
int ThreeWay(const T& a, const T& b) {
  return (b < a) - (a < b);
}

// The order EncodeKey must reproduce, spelled out on the values.
int RefCompareValue(const Value& a, const Value& b) {
  switch (a.type()) {
    case ColumnType::kInt64: return ThreeWay(a.AsInt64(), b.AsInt64());
    case ColumnType::kDouble: return ThreeWay(a.AsDouble(), b.AsDouble());
    case ColumnType::kMoney:
      return ThreeWay(a.AsMoney().cents(), b.AsMoney().cents());
    case ColumnType::kString: return Sign(a.AsString().compare(b.AsString()));
  }
  return 0;
}

int RefCompare(const CompositeKey& a, const CompositeKey& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (int c = RefCompareValue(a[i], b[i]); c != 0) return c;
  }
  return ThreeWay(a.size(), b.size());
}

bool RefIsPrefix(const CompositeKey& prefix, const CompositeKey& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (RefCompareValue(prefix[i], full[i]) != 0) return false;
  }
  return true;
}

const std::vector<int64_t>& EdgeInts() {
  static const std::vector<int64_t> kInts = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -65537, -65536, -65535, -257, -256, -255, -2, -1, 0, 1, 2,
      127, 128, 255, 256, 257, 65535, 65536, 65537,
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max()};
  return kInts;
}

const std::vector<double>& EdgeDoubles() {
  static const std::vector<double> kDoubles = {
      -std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::max(), -1e10, -1.5, -1.0,
      -std::numeric_limits<double>::denorm_min(), -0.0, 0.0,
      std::numeric_limits<double>::denorm_min(), 0.5, 1.0, 2.25, 1e300,
      std::numeric_limits<double>::infinity()};
  return kDoubles;
}

const std::vector<std::string>& EdgeStrings() {
  static const std::vector<std::string> kStrings = {
      std::string(), std::string(1, '\0'), std::string(2, '\0'),
      std::string("\0\x01", 2), std::string("\0\xff", 2), "\x01", "\xff",
      "\xff\xff", "a", std::string("a\0", 2), std::string("a\0b", 3),
      "a\x01", "a\xff", "ab", "b"};
  return kStrings;
}

// Every pair: byte order of the encodings equals the reference order, and
// a key is a prefix of another iff its encoding is a byte prefix.
void ExpectOrderAndPrefixAgree(const std::vector<CompositeKey>& keys) {
  std::vector<std::string> encoded;
  encoded.reserve(keys.size());
  for (const CompositeKey& key : keys) encoded.push_back(EncodeKey(key));
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(Sign(encoded[i].compare(encoded[j])),
                RefCompare(keys[i], keys[j]))
          << CompositeKeyToString(keys[i]) << " vs "
          << CompositeKeyToString(keys[j]);
      ASSERT_EQ(encoded[j].starts_with(encoded[i]),
                RefIsPrefix(keys[i], keys[j]))
          << CompositeKeyToString(keys[i]) << " prefix of "
          << CompositeKeyToString(keys[j]);
    }
  }
}

TEST(KeyEncodingTest, SingleColumnEdgeValuesKeepValueOrder) {
  std::vector<CompositeKey> ints, moneys, doubles, strings;
  for (int64_t n : EdgeInts()) {
    ints.push_back(Key(n));
    moneys.push_back(Key(Money::FromCents(n)));
  }
  for (double d : EdgeDoubles()) doubles.push_back(Key(d));
  for (const std::string& str : EdgeStrings()) strings.push_back(Key(str));
  for (const auto* keys : {&ints, &moneys, &doubles, &strings}) {
    std::vector<CompositeKey> with_empty = *keys;
    with_empty.push_back({});  // The empty key sorts first and prefixes all.
    ExpectOrderAndPrefixAgree(with_empty);
  }
}

TEST(KeyEncodingTest, CompositeKeysKeepLexicographicOrderAndPrefixes) {
  // Keys over the column types (int64, string, double, money), of every
  // length 0..4: prefixes of one another, and ties in leading columns.
  std::vector<CompositeKey> keys = {{}};
  for (int64_t n : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, int64_t{255}, int64_t{256}}) {
    keys.push_back(Key(n));
    for (const std::string& str :
         {std::string(), std::string(1, '\0'), std::string("a"),
          std::string("a\0", 2), std::string("\xff")}) {
      keys.push_back(Key(n, str));
      for (double d : {-0.0, -1.5, 2.25}) {
        keys.push_back(Key(n, str, d));
        for (int64_t cents : {int64_t{-100}, int64_t{0}, int64_t{65536}}) {
          keys.push_back(Key(n, str, d, Money::FromCents(cents)));
        }
      }
    }
  }
  ExpectOrderAndPrefixAgree(keys);
}

TEST(KeyEncodingTest, EdgeEncodings) {
  // Signed zeros are one key.
  EXPECT_EQ(EncodeKey(Key(0.0)), EncodeKey(Key(-0.0)));
  // Integer widths: a tag byte plus the fewest big-endian bytes.
  EXPECT_EQ(EncodeKey(Key(0)).size(), 1u);
  EXPECT_EQ(EncodeKey(Key(-1)).size(), 1u);
  EXPECT_EQ(EncodeKey(Key(255)).size(), 2u);
  EXPECT_EQ(EncodeKey(Key(256)).size(), 3u);
  EXPECT_EQ(EncodeKey(Key(-256)).size(), 2u);
  EXPECT_EQ(EncodeKey(Key(-257)).size(), 3u);
  EXPECT_EQ(EncodeKey(Key(std::numeric_limits<int64_t>::min())).size(), 9u);
  EXPECT_EQ(EncodeKey(Key(std::numeric_limits<int64_t>::max())).size(), 9u);
  // A TPC-C order-line key (w, d, o, line) is a handful of bytes.
  EXPECT_LE(EncodeKey(Key(100, 10, 3000000, 15)).size(), 12u);
  // Strings: 0x00 escaped, then a terminator.
  EXPECT_EQ(EncodeKey(Key(std::string("a\0b", 3))),
            std::string("a\0\xff" "b\0\x01", 6));
  EXPECT_EQ(EncodeKey(Key(std::string())), std::string("\0\x01", 2));
  EXPECT_EQ(EncodeKeyColumns({Value(7), Value("x"), Value(9)}, {2, 0}),
            EncodeKey(Key(9, 7)));
}

TEST(KeyEncodingTest, TablesFoldSignedZerosAndRejectNaN) {
  Schema schema;
  schema.columns = {{"k", ColumnType::kDouble}, {"v", ColumnType::kDouble}};
  schema.key_columns = {0};
  Table t(0, "t", schema);
  IndexId by_v = t.AddIndex("by_v", {1});
  auto id = t.Insert({Value(0.0), Value(-0.0)});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.Insert({Value(-0.0), Value(1.0)}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.LookupPk(Key(-0.0)), *id);
  EXPECT_EQ(t.LookupIndex(by_v, Key(0.0)), std::vector<RowId>{*id});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(t.Insert({Value(nan), Value(1.0)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Insert({Value(1.0), Value(nan)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.UpdateColumns(*id, {{1, Value(nan)}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.LookupIndex(by_v, Key(0.0)), std::vector<RowId>{*id});
  EXPECT_EQ(t.size(), 1u);
}

// --- Schema ---

TEST(SchemaTest, ColumnIndex) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.ColumnIndex("id"), 0);
  EXPECT_EQ(s.ColumnIndex("name"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, ValidateArity) {
  Schema s = TwoColSchema();
  EXPECT_TRUE(s.Validate({Value(1), Value("a")}).ok());
  EXPECT_FALSE(s.Validate({Value(1)}).ok());
}

TEST(SchemaTest, ValidateTypes) {
  Schema s = TwoColSchema();
  EXPECT_FALSE(s.Validate({Value("bad"), Value("a")}).ok());
}

// --- Table ---

TEST(TableTest, InsertAndGet) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("one")});
  ASSERT_TRUE(id.ok());
  const Row* row = t.Get(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].AsString(), "one");
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, DuplicatePkRejected) {
  Table t(0, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("a")}).ok());
  auto dup = t.Insert({Value(1), Value("b")});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, LookupPk) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(5), Value("five")});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.LookupPk(Key(5)), *id);
  EXPECT_FALSE(t.LookupPk(Key(6)).has_value());
}

TEST(TableTest, UpdateReplacesRow) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(t.Update(*id, {Value(1), Value("b")}).ok());
  EXPECT_EQ((*t.Get(*id))[1].AsString(), "b");
}

TEST(TableTest, UpdateCannotChangeKey) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(t.Update(*id, {Value(2), Value("a")}).ok());
}

TEST(TableTest, UpdateColumns) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(t.UpdateColumns(*id, {{1, Value("z")}}).ok());
  EXPECT_EQ((*t.Get(*id))[1].AsString(), "z");
  // Key column updates are rejected.
  EXPECT_FALSE(t.UpdateColumns(*id, {{0, Value(9)}}).ok());
  // Type mismatches are rejected.
  EXPECT_FALSE(t.UpdateColumns(*id, {{1, Value(9)}}).ok());
}

TEST(TableTest, DeleteRemovesRowAndIndex) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(t.Delete(*id).ok());
  EXPECT_EQ(t.Get(*id), nullptr);
  EXPECT_FALSE(t.LookupPk(Key(1)).has_value());
  EXPECT_FALSE(t.Delete(*id).ok());
}

TEST(TableTest, RowIdsNotReused) {
  Table t(0, "t", TwoColSchema());
  auto id1 = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(t.Delete(*id1).ok());
  auto id2 = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
}

TEST(TableTest, InsertWithIdRestoresRow) {
  Table t(0, "t", TwoColSchema());
  auto id = t.Insert({Value(1), Value("a")});
  ASSERT_TRUE(id.ok());
  Row saved = *t.Get(*id);
  ASSERT_TRUE(t.Delete(*id).ok());
  ASSERT_TRUE(t.InsertWithId(*id, saved).ok());
  EXPECT_EQ(t.LookupPk(Key(1)), *id);
}

Schema CompositeSchema() {
  Schema schema;
  schema.columns = {{"a", ColumnType::kInt64},
                    {"b", ColumnType::kInt64},
                    {"v", ColumnType::kInt64}};
  schema.key_columns = {0, 1};
  return schema;
}

TEST(TableTest, ScanPkPrefix) {
  Table t(0, "t", CompositeSchema());
  for (int a = 1; a <= 3; ++a) {
    for (int b = 1; b <= 4; ++b) {
      ASSERT_TRUE(t.Insert({Value(a), Value(b), Value(a * 10 + b)}).ok());
    }
  }
  std::vector<RowId> hits = t.ScanPkPrefix(Key(2));
  ASSERT_EQ(hits.size(), 4u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ((*t.Get(hits[i]))[0].AsInt64(), 2);
    EXPECT_EQ((*t.Get(hits[i]))[1].AsInt64(), static_cast<int64_t>(i + 1));
  }
  EXPECT_TRUE(t.ScanPkPrefix(Key(9)).empty());
}

TEST(TableTest, MinPkPrefix) {
  Table t(0, "t", CompositeSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value(7), Value(0)}).ok());
  ASSERT_TRUE(t.Insert({Value(1), Value(3), Value(0)}).ok());
  ASSERT_TRUE(t.Insert({Value(2), Value(1), Value(0)}).ok());
  auto min1 = t.MinPkPrefix(Key(1));
  ASSERT_TRUE(min1.has_value());
  EXPECT_EQ((*t.Get(*min1))[1].AsInt64(), 3);
  EXPECT_FALSE(t.MinPkPrefix(Key(5)).has_value());
}

TEST(TableTest, SecondaryIndexLookup) {
  Table t(0, "t", TwoColSchema());
  IndexId by_name = t.AddIndex("by_name", {1});
  auto id1 = t.Insert({Value(1), Value("bob")});
  auto id2 = t.Insert({Value(2), Value("bob")});
  auto id3 = t.Insert({Value(3), Value("eve")});
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  std::vector<RowId> bobs = t.LookupIndex(by_name, Key("bob"));
  EXPECT_EQ(bobs, (std::vector<RowId>{*id1, *id2}));
  EXPECT_TRUE(t.LookupIndex(by_name, Key("zed")).empty());
}

TEST(TableTest, SecondaryIndexMaintainedOnUpdateDelete) {
  Table t(0, "t", TwoColSchema());
  IndexId by_name = t.AddIndex("by_name", {1});
  auto id = t.Insert({Value(1), Value("bob")});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(t.UpdateColumns(*id, {{1, Value("eve")}}).ok());
  EXPECT_TRUE(t.LookupIndex(by_name, Key("bob")).empty());
  EXPECT_EQ(t.LookupIndex(by_name, Key("eve")).size(), 1u);
  ASSERT_TRUE(t.Delete(*id).ok());
  EXPECT_TRUE(t.LookupIndex(by_name, Key("eve")).empty());
}

TEST(TableTest, ScanIndexPrefix) {
  Table t(0, "t", CompositeSchema());
  IndexId by_b = t.AddIndex("by_b", {1, 0});
  for (int a = 1; a <= 3; ++a) {
    ASSERT_TRUE(t.Insert({Value(a), Value(a % 2), Value(0)}).ok());
  }
  EXPECT_EQ(t.ScanIndexPrefix(by_b, Key(1)).size(), 2u);  // a = 1 and 3.
  EXPECT_EQ(t.ScanIndexPrefix(by_b, Key(0)).size(), 1u);  // a = 2.
}

// --- Sharded tables ---

TEST(RowIdTest, ShardEncodingRoundTrips) {
  const RowId id = MakeRowId(5, 42);
  EXPECT_EQ(RowIdShard(id), 5u);
  EXPECT_EQ(RowIdSeq(id), 42u);
  // Shard 0 ids are plain sequence numbers (unsharded compatibility).
  EXPECT_EQ(MakeRowId(0, 7), RowId{7});
  EXPECT_EQ(RowIdShard(kRowIdSeqMask), 0u);
}

TEST(ShardedTableTest, InsertRoutesByFirstKeyColumn) {
  Table t(0, "t", CompositeSchema(), /*shards=*/4);
  EXPECT_EQ(t.shards(), 4u);
  for (int a = 0; a < 8; ++a) {
    auto id = t.Insert({Value(a), Value(1), Value(a)});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(RowIdShard(*id), static_cast<size_t>(a % 4));
    EXPECT_EQ(t.LookupPk(Key(a, 1)), *id);
  }
  EXPECT_EQ(t.size(), 8u);
  // Per-shard sequences both start at 1: distinct shards, same seq.
  auto id0 = t.LookupPk(Key(0, 1));
  auto id1 = t.LookupPk(Key(1, 1));
  ASSERT_TRUE(id0 && id1);
  EXPECT_EQ(RowIdSeq(*id0), RowIdSeq(*id1));
  EXPECT_NE(*id0, *id1);
}

TEST(ShardedTableTest, SingleShardIdsMatchHistoricalSequence) {
  Table t(0, "t", TwoColSchema());
  for (int i = 1; i <= 3; ++i) {
    auto id = t.Insert({Value(i), Value("x")});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<RowId>(i));
  }
}

TEST(ShardedTableTest, PrefixedScanTouchesOneShardMergedScanSortsByKey) {
  Table t(0, "t", CompositeSchema(), /*shards=*/3);
  for (int a = 5; a >= 1; --a) {
    for (int b = 1; b <= 3; ++b) {
      ASSERT_TRUE(t.Insert({Value(a), Value(b), Value(a * 10 + b)}).ok());
    }
  }
  // Routing prefix: single shard, key order within it.
  std::vector<RowId> one = t.ScanPkPrefix(Key(4));
  ASSERT_EQ(one.size(), 3u);
  for (RowId id : one) EXPECT_EQ(RowIdShard(id), 4u % 3);
  // Empty prefix: all 15 rows merged across shards in global key order.
  std::vector<RowId> all = t.ScanPkPrefix({});
  ASSERT_EQ(all.size(), 15u);
  for (size_t i = 0; i < all.size(); ++i) {
    const Row* row = t.Get(all[i]);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[0].AsInt64(), static_cast<int64_t>(i / 3 + 1));
    EXPECT_EQ((*row)[1].AsInt64(), static_cast<int64_t>(i % 3 + 1));
  }
  // MinPkPrefix agrees with the merged order.
  auto min = t.MinPkPrefix({});
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(*min, all[0]);
}

TEST(ShardedTableTest, RoutableAndNonRoutableIndexes) {
  Table t(0, "t", CompositeSchema(), /*shards=*/4);
  // by_ab leads with the routing column; by_b does not and must merge.
  IndexId by_ab = t.AddIndex("by_ab", {0, 1});
  IndexId by_b = t.AddIndex("by_b", {1});
  std::vector<RowId> inserted;
  for (int a = 1; a <= 6; ++a) {
    auto id = t.Insert({Value(a), Value(a % 2), Value(0)});
    ASSERT_TRUE(id.ok());
    inserted.push_back(*id);
  }
  EXPECT_EQ(t.LookupIndex(by_ab, Key(3, 1)).size(), 1u);
  // Non-routable lookup gathers from every shard, RowId-sorted.
  std::vector<RowId> odd = t.LookupIndex(by_b, Key(1));
  ASSERT_EQ(odd.size(), 3u);
  EXPECT_TRUE(std::is_sorted(odd.begin(), odd.end()));
  for (RowId id : odd) EXPECT_EQ((*t.Get(id))[0].AsInt64() % 2, 1);
  // Prefix scan over the non-routable index: key order across shards.
  std::vector<RowId> scanned = t.ScanIndexPrefix(by_b, {});
  ASSERT_EQ(scanned.size(), 6u);
  for (size_t i = 1; i < scanned.size(); ++i) {
    EXPECT_LE((*t.Get(scanned[i - 1]))[1].AsInt64(),
              (*t.Get(scanned[i]))[1].AsInt64());
  }
}

TEST(ShardedTableTest, InsertWithIdRejectsShardMismatch) {
  Table t(0, "t", CompositeSchema(), /*shards=*/4);
  auto id = t.Insert({Value(2), Value(1), Value(9)});
  ASSERT_TRUE(id.ok());
  Row saved = *t.Get(*id);
  ASSERT_TRUE(t.Delete(*id).ok());
  // An id whose shard bits disagree with the key's route is rejected.
  RowId wrong = MakeRowId(1, RowIdSeq(*id));
  EXPECT_EQ(t.InsertWithId(wrong, saved).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(t.InsertWithId(*id, saved).ok());
  EXPECT_EQ(t.LookupPk(Key(2, 1)), *id);
}

TEST(ShardedTableTest, ConcurrentInsertsAcrossShards) {
  constexpr int kShards = 8;
  constexpr int kRowsPerShard = 500;
  Table t(0, "t", CompositeSchema(), kShards);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (int w = 0; w < kShards; ++w) {
    threads.emplace_back([&t, w] {
      for (int b = 1; b <= kRowsPerShard; ++b) {
        ASSERT_TRUE(t.Insert({Value(w), Value(b), Value(w * 1000 + b)}).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(t.size(), static_cast<size_t>(kShards * kRowsPerShard));
  for (int w = 0; w < kShards; ++w) {
    EXPECT_EQ(t.ScanPkPrefix(Key(w)).size(),
              static_cast<size_t>(kRowsPerShard));
  }
}

// --- Frozen (read-only) tables ---

// Every read primitive's answer over `t`, for before/after comparisons.
std::pair<std::vector<std::vector<RowId>>, std::vector<Row>> ReadEverything(
    const Table& t, IndexId index) {
  std::vector<std::vector<RowId>> ids = {
      t.ScanAll(), t.ScanPkPrefix({}), t.ScanPkPrefix(Key(2)),
      t.LookupIndex(index, Key(1)), t.ScanIndexPrefix(index, {})};
  std::vector<RowId> points;
  for (int a = 1; a <= 4; ++a) {
    for (int b = 1; b <= 2; ++b) {
      points.push_back(t.LookupPk(Key(a, b)).value_or(kInvalidRowId));
    }
  }
  points.push_back(t.MinPkPrefix({}).value_or(kInvalidRowId));
  points.push_back(t.MinPkPrefix(Key(3)).value_or(kInvalidRowId));
  points.push_back(t.size());
  ids.push_back(points);
  std::vector<Row> rows;
  for (RowId id : t.ScanAll()) {
    rows.push_back(*t.Get(id));
    rows.push_back(*t.GetCopy(id));
  }
  return {ids, rows};
}

TEST(FrozenTableTest, MutatorsFailAndReadsAreUnchanged) {
  Table t(0, "t", CompositeSchema(), /*shards=*/2);
  const IndexId by_b = t.AddIndex("by_b", {1});
  for (int a = 1; a <= 4; ++a) {
    for (int b = 1; b <= 2; ++b) {
      ASSERT_TRUE(t.Insert({Value(a), Value(b), Value(a * 10 + b)}).ok());
    }
  }
  // A deleted row, for InsertWithId to try to restore.
  const RowId dead = *t.LookupPk(Key(3, 2));
  const Row dead_row = *t.Get(dead);
  ASSERT_TRUE(t.Delete(dead).ok());
  const RowId live = *t.LookupPk(Key(2, 1));
  const auto before = ReadEverything(t, by_b);

  EXPECT_FALSE(t.frozen());
  t.Freeze();
  EXPECT_TRUE(t.frozen());
  EXPECT_EQ(t.Insert({Value(9), Value(1), Value(0)}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.Insert({Value(9), Value(1), Value(0)},
                     [](RowId) { ADD_FAILURE() << "published"; })
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.InsertWithId(dead, dead_row).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.Update(live, {Value(2), Value(1), Value(0)}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.UpdateColumns(live, {{2, Value(0)}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.UpdateColumns(live, {{1, Value(7)}}).code(),  // Indexed.
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.Delete(live).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.CheckWritable().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ReadEverything(t, by_b) == before);
}

// Readers of a table that is frozen while they run, and while a loader
// still inserts into it, next to writers of another table of the same
// database. Under ThreadSanitizer this checks that the latch-free reads
// after Freeze are ordered after the loader's last insert.
TEST(FrozenTableTest, LatchFreeReadsBesideWritersOfAnotherTable) {
  constexpr int kItems = 200;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kWriterRows = 400;
  Database db;
  Table* items = db.CreateTable("items", TwoColSchema());
  Table* hot = db.CreateTable("hot", CompositeSchema(), /*shards=*/kWriters);
  for (int i = 1; i <= kItems; ++i) {
    ASSERT_TRUE(items->Insert({Value(i), Value("item-" + std::to_string(i))})
                    .ok());
  }
  std::atomic<int> loaded{kItems};
  std::atomic<bool> loader_stopped{false};
  std::vector<std::thread> threads;
  // The loader appends until the freeze refuses it.
  threads.emplace_back([&] {
    for (int i = kItems + 1;; ++i) {
      Result<RowId> id = items->Insert({Value(i), Value("late")});
      if (!id.ok()) {
        EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
        loader_stopped.store(true);
        return;
      }
      loaded.store(i, std::memory_order_release);
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Reads until 2000 of them have come after the freeze.
      for (int n = 0, after_freeze = 0; after_freeze < 2000; ++n) {
        if (items->frozen()) ++after_freeze;
        const int key = (n * 7 + r) % kItems + 1;
        std::optional<RowId> id = items->LookupPk(Key(key));
        ASSERT_TRUE(id.has_value());
        const Row* row = items->Get(*id);
        ASSERT_NE(row, nullptr);
        EXPECT_EQ((*row)[1].AsString(), "item-" + std::to_string(key));
        std::optional<Row> copy = items->GetCopy(*id);
        ASSERT_TRUE(copy.has_value());
        EXPECT_TRUE(*copy == *row);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([hot, w] {
      for (int b = 1; b <= kWriterRows; ++b) {
        Result<RowId> id = hot->Insert({Value(w), Value(b), Value(b)});
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(hot->UpdateColumns(*id, {{2, Value(-b)}}).ok());
        ASSERT_TRUE(hot->Update(*id, {Value(w), Value(b), Value(b)}).ok());
        if (b % 2 == 0) {
          ASSERT_TRUE(hot->Delete(*id).ok());
        }
      }
    });
  }
  while (loaded.load(std::memory_order_acquire) < kItems + 50 &&
         !loader_stopped.load()) {
    std::this_thread::yield();
  }
  items->Freeze();
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(items->frozen());
  EXPECT_EQ(items->size(), static_cast<size_t>(loaded.load()));
  EXPECT_EQ(hot->size(), static_cast<size_t>(kWriters * kWriterRows / 2));
  EXPECT_FALSE(hot->frozen());
}

// --- Indexes vs. a brute-force reference ---

// Random inserts, deletes, restores (InsertWithId) and index-column updates
// on a table keyed (a int64, b string, c int64), with a routable index
// (a, v double) and a non-routable one (b) full of ties; then every lookup
// and scan is checked against a scan of a model of the live rows.
void CheckIndexesAgainstReference(size_t shards) {
  Schema schema;
  schema.columns = {{"a", ColumnType::kInt64},
                    {"b", ColumnType::kString},
                    {"c", ColumnType::kInt64},
                    {"v", ColumnType::kDouble}};
  schema.key_columns = {0, 1, 2};
  Table t(0, "t", schema, shards);
  const IndexId by_av = t.AddIndex("by_av", {0, 3});
  const IndexId by_b = t.AddIndex("by_b", {1});

  std::mt19937_64 rng(20240917 + shards);
  auto pick = [&rng](const auto& values) {
    return values[rng() % values.size()];
  };
  const std::vector<int64_t> as = {-5, -1, 0, 1, 2, 3, 7};
  const std::vector<std::string> bs = {
      std::string(), std::string(1, '\0'), "a", std::string("a\0", 2),
      "ab", "\xff"};
  const std::vector<int64_t> cs = {std::numeric_limits<int64_t>::min(), -256,
                                   -1, 0, 255, 256, 65536,
                                   std::numeric_limits<int64_t>::max()};
  const std::vector<double> vs = {-1.5, -0.0, 0.0, 2.25};

  std::map<RowId, Row> live;      // The model: live rows by id.
  std::map<RowId, Row> deleted;    // Restorable under their old ids.
  for (int op = 0; op < 1500; ++op) {
    const uint64_t kind = rng() % 10;
    if (kind < 5 || live.empty()) {
      Row row = {Value(pick(as)), Value(pick(bs)), Value(pick(cs)),
                 Value(pick(vs))};
      Result<RowId> id = t.Insert(row);
      bool duplicate = false;
      for (const auto& [other_id, other] : live) {
        if (RefCompare(schema.KeyOf(other), schema.KeyOf(row)) == 0) {
          duplicate = true;
        }
      }
      ASSERT_EQ(id.ok(), !duplicate);
      if (id.ok()) live.emplace(*id, std::move(row));
    } else if (kind < 7) {
      auto it = std::next(live.begin(), rng() % live.size());
      ASSERT_TRUE(t.Delete(it->first).ok());
      deleted.insert(*it);
      live.erase(it);
    } else if (kind < 8 && !deleted.empty()) {
      auto it = std::next(deleted.begin(), rng() % deleted.size());
      const Status restored = t.InsertWithId(it->first, it->second);
      if (restored.ok()) {
        live.insert(*it);
        deleted.erase(it);
      } else {
        ASSERT_EQ(restored.code(), StatusCode::kAlreadyExists);
      }
    } else {
      auto it = std::next(live.begin(), rng() % live.size());
      const Value v(pick(vs));
      ASSERT_TRUE(t.UpdateColumns(it->first, {{3, v}}).ok());
      it->second[3] = v;
    }
  }
  ASSERT_EQ(t.size(), live.size());

  auto index_key = [](const Row& row, const std::vector<int>& columns) {
    CompositeKey key;
    for (int c : columns) key.push_back(row[c]);
    return key;
  };
  // Reference scan: ids of live rows whose `columns` key extends `prefix`,
  // by key then RowId.
  auto reference = [&](const std::vector<int>& columns,
                       const CompositeKey& prefix, bool exact) {
    std::vector<std::pair<CompositeKey, RowId>> hits;
    for (const auto& [id, row] : live) {
      CompositeKey key = index_key(row, columns);
      if (!RefIsPrefix(prefix, key)) continue;
      if (exact && key.size() != prefix.size()) continue;
      hits.emplace_back(std::move(key), id);
    }
    std::sort(hits.begin(), hits.end(), [](const auto& x, const auto& y) {
      if (int c = RefCompare(x.first, y.first); c != 0) return c < 0;
      return x.second < y.second;
    });
    std::vector<RowId> ids;
    for (const auto& hit : hits) ids.push_back(hit.second);
    return ids;
  };

  // Probe keys: every prefix of every live or deleted row's keys, plus
  // keys no row has.
  std::vector<Row> probes;
  for (const auto& [id, row] : live) probes.push_back(row);
  for (const auto& [id, row] : deleted) probes.push_back(row);
  probes.push_back({Value(int64_t{4}), Value("zz"), Value(int64_t{9}),
                    Value(9.5)});
  const std::vector<int>& pk = schema.key_columns;
  const std::vector<int> av = {0, 3};
  const std::vector<int> b = {1};
  for (const Row& probe : probes) {
    const CompositeKey key = index_key(probe, pk);
    const std::vector<RowId> exact = reference(pk, key, true);
    EXPECT_EQ(t.LookupPk(key), exact.empty()
                                   ? std::nullopt
                                   : std::optional<RowId>(exact.front()));
    for (size_t len = 0; len <= key.size(); ++len) {
      const CompositeKey prefix(key.begin(), key.begin() + len);
      const std::vector<RowId> scan = reference(pk, prefix, false);
      EXPECT_EQ(t.ScanPkPrefix(prefix), scan) << CompositeKeyToString(prefix);
      EXPECT_EQ(t.MinPkPrefix(prefix),
                scan.empty() ? std::nullopt
                             : std::optional<RowId>(scan.front()));
    }
    for (const auto& [index, columns] :
         {std::pair{by_av, av}, std::pair{by_b, b}}) {
      const CompositeKey ikey = index_key(probe, columns);
      EXPECT_EQ(t.LookupIndex(index, ikey), reference(columns, ikey, true))
          << CompositeKeyToString(ikey);
      for (size_t len = 0; len <= ikey.size(); ++len) {
        const CompositeKey prefix(ikey.begin(), ikey.begin() + len);
        EXPECT_EQ(t.ScanIndexPrefix(index, prefix),
                  reference(columns, prefix, false))
            << CompositeKeyToString(prefix);
      }
    }
  }
}

TEST(IndexReferenceTest, OneShardMatchesBruteForce) {
  CheckIndexesAgainstReference(1);
}

TEST(IndexReferenceTest, FourShardsMatchBruteForce) {
  CheckIndexesAgainstReference(4);
}

// --- Database ---

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  Table* t = db.CreateTable("orders", TwoColSchema());
  EXPECT_EQ(db.GetTable("orders"), t);
  EXPECT_EQ(db.GetTable(t->id()), t);
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  EXPECT_EQ(db.table_count(), 1u);
}

TEST(DatabaseTest, Variables) {
  Database db;
  Table* counter = db.CreateVariable("counter", 41);
  EXPECT_EQ(db.ReadVariable(*counter), 41);
  ASSERT_TRUE(
      counter->UpdateColumns(kVariableRowId, {{1, Value(42)}}).ok());
  EXPECT_EQ(db.ReadVariable(*counter), 42);
}

}  // namespace
}  // namespace accdb::storage
