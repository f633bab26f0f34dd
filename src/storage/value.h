// Typed column values.
//
// The storage engine is schema-typed: every column has a declared ColumnType
// and every Value stored in it must match. Supported types cover what the
// TPC-C and order-processing schemas need: 64-bit integers, doubles (tax
// rates / quantities), exact Money, and strings.

#ifndef ACCDB_STORAGE_VALUE_H_
#define ACCDB_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/money.h"

namespace accdb::storage {

enum class ColumnType { kInt64, kDouble, kMoney, kString };

std::string_view ColumnTypeName(ColumnType type);

class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t v) : v_(v) {}            // NOLINT(runtime/explicit)
  Value(int v) : v_(int64_t{v}) {}       // NOLINT(runtime/explicit)
  Value(double v) : v_(v) {}             // NOLINT(runtime/explicit)
  Value(Money v) : v_(v) {}              // NOLINT(runtime/explicit)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(runtime/explicit)

  ColumnType type() const {
    switch (v_.index()) {
      case 0: return ColumnType::kInt64;
      case 1: return ColumnType::kDouble;
      case 2: return ColumnType::kMoney;
      default: return ColumnType::kString;
    }
  }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  Money AsMoney() const { return std::get<Money>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  // Debug rendering, e.g. `42`, `"abc"`, `$12.34`.
  std::string ToString() const;

  // Equality requires identical types. Values are ordered only through
  // their key encoding (EncodeKey below).
  friend bool operator==(const Value& a, const Value& b) {
    return a.v_ == b.v_;
  }

 private:
  std::variant<int64_t, double, Money, std::string> v_;
};

// Composite key over an ordered set of column values; used by primary and
// secondary indexes. Keys order lexicographically, column by column, and a
// shorter key that is a prefix of a longer one sorts first (this gives
// natural prefix range scans). That order is defined by EncodeKey.
using CompositeKey = std::vector<Value>;

// Order-preserving, self-delimiting byte encoding of keys, the one
// definition of key order: the storage indexes and the OCC write buffer
// keep encoded keys and compare them bytewise (memcmp order).
//   - For keys whose columns have the same types, byte order of the
//     encodings equals the lexicographic key order above.
//   - Each column encodes to a prefix-free code, so a key prefix encodes to
//     a byte prefix and a byte prefix names a key prefix: a prefix scan is a
//     lower_bound plus compare(0, prefix.size(), prefix).
// Per column type:
//   - int64 and Money (cents): a tag byte 0x80+L for n >= 0 or 0x7F-L for
//     n < 0, then the low L bytes of n big-endian, where L (0..8) is the
//     fewest bytes that hold n (n >= 0) or ~n (n < 0). Small ids take 1-3
//     bytes, so TPC-C keys fit std::string's inline buffer.
//   - double: 8 bytes, the IEEE bits big-endian with the sign bit flipped
//     (negatives: all bits flipped); -0.0 encodes as 0.0. NaN is unordered
//     and must not reach a key (tables reject it; asserted here).
//   - string: the bytes with each 0x00 escaped as 0x00 0xFF, then the
//     terminator 0x00 0x01.
std::string EncodeKey(const CompositeKey& key);
// EncodeKey of the key made of `values` at positions `columns` (a row's
// primary or index key), without building the CompositeKey.
std::string EncodeKeyColumns(const std::vector<Value>& values,
                             const std::vector<int>& columns);

std::string CompositeKeyToString(const CompositeKey& key);

// Convenience builder: Key(1, 2, "abc").
template <typename... Args>
CompositeKey Key(Args&&... args) {
  CompositeKey key;
  key.reserve(sizeof...(args));
  (key.emplace_back(Value(std::forward<Args>(args))), ...);
  return key;
}

}  // namespace accdb::storage

#endif  // ACCDB_STORAGE_VALUE_H_
