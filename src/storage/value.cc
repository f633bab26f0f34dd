#include "storage/value.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace accdb::storage {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: return "INT64";
    case ColumnType::kDouble: return "DOUBLE";
    case ColumnType::kMoney: return "MONEY";
    case ColumnType::kString: return "STRING";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type()) {
    case ColumnType::kInt64:
      return StrFormat("%lld", static_cast<long long>(AsInt64()));
    case ColumnType::kDouble:
      return StrFormat("%g", AsDouble());
    case ColumnType::kMoney:
      return "$" + AsMoney().ToString();
    case ColumnType::kString:
      return "\"" + AsString() + "\"";
  }
  return "?";
}

namespace {

void AppendInt(int64_t n, std::string* out) {
  const auto bits = static_cast<uint64_t>(n);
  const uint64_t magnitude = n < 0 ? ~bits : bits;
  const int len = (std::bit_width(magnitude) + 7) / 8;
  char buf[9];
  buf[0] = static_cast<char>(n < 0 ? 0x7F - len : 0x80 + len);
  for (int i = 0; i < len; ++i) {
    buf[len - i] = static_cast<char>(bits >> (8 * i));
  }
  out->append(buf, static_cast<size_t>(len) + 1);
}

void AppendDouble(double d, std::string* out) {
  assert(!std::isnan(d) && "NaN has no key order");
  if (d == 0) d = 0.0;  // -0.0 and 0.0 are one key.
  auto bits = std::bit_cast<uint64_t>(d);
  bits = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (56 - 8 * i));
  out->append(buf, sizeof(buf));
}

void AppendString(std::string_view s, std::string* out) {
  for (size_t nul; (nul = s.find('\0')) != std::string_view::npos;
       s.remove_prefix(nul + 1)) {
    out->append(s.data(), nul);
    out->append("\0\xff", 2);
  }
  out->append(s);
  out->append("\0\x01", 2);
}

void AppendKeyValue(const Value& value, std::string* out) {
  switch (value.type()) {
    case ColumnType::kInt64: AppendInt(value.AsInt64(), out); return;
    case ColumnType::kDouble: AppendDouble(value.AsDouble(), out); return;
    case ColumnType::kMoney: AppendInt(value.AsMoney().cents(), out); return;
    case ColumnType::kString: AppendString(value.AsString(), out); return;
  }
}

}  // namespace

std::string EncodeKey(const CompositeKey& key) {
  std::string out;
  for (const Value& value : key) AppendKeyValue(value, &out);
  return out;
}

std::string EncodeKeyColumns(const std::vector<Value>& values,
                             const std::vector<int>& columns) {
  std::string out;
  for (int c : columns) AppendKeyValue(values[c], &out);
  return out;
}

std::string CompositeKeyToString(const CompositeKey& key) {
  std::string out = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ", ";
    out += key[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace accdb::storage
