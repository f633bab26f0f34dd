#include "lock/types.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace accdb::lock {

std::string ItemId::ToString() const {
  if (is_table()) return StrFormat("t%u", table);
  return StrFormat("t%u/r%llu", table, static_cast<unsigned long long>(row));
}

std::string_view LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIS: return "IS";
    case LockMode::kIX: return "IX";
    case LockMode::kS: return "S";
    case LockMode::kSIX: return "SIX";
    case LockMode::kX: return "X";
    case LockMode::kAssert: return "A";
    case LockMode::kComp: return "C";
  }
  return "?";
}

namespace {

// Privilege bitmasks for the conventional modes: bit 0 = intent-read,
// bit 1 = intent-write, bit 2 = read, bit 3 = write.
int ModeBits(LockMode mode) {
  switch (mode) {
    case LockMode::kIS: return 0b0001;
    case LockMode::kIX: return 0b0011;
    case LockMode::kS: return 0b0101;
    case LockMode::kSIX: return 0b0111;
    case LockMode::kX: return 0b1111;
    default: assert(false && "conventional modes only"); return 0;
  }
}

LockMode ModeFromBits(int bits) {
  switch (bits) {
    case 0b0001: return LockMode::kIS;
    case 0b0011: return LockMode::kIX;
    case 0b0101: return LockMode::kS;
    case 0b0111: return LockMode::kSIX;
    default: return LockMode::kX;
  }
}

}  // namespace

void KeyList::Assign(const int64_t* keys, size_t n) {
  if (n > kCapacity) {
    std::fprintf(stderr,
                 "KeyList: %zu keys exceed the inline capacity of %zu\n", n,
                 kCapacity);
    std::abort();
  }
  std::copy(keys, keys + n, keys_.begin());
  size_ = static_cast<uint8_t>(n);
}

bool ModeCovers(LockMode held, LockMode requested) {
  int h = ModeBits(held);
  int r = ModeBits(requested);
  return (h & r) == r;
}

LockMode ModeCombine(LockMode a, LockMode b) {
  return ModeFromBits(ModeBits(a) | ModeBits(b));
}

WaitClass WaitClassOf(LockMode mode) {
  switch (mode) {
    case LockMode::kIS:
    case LockMode::kS:
      return WaitClass::kShared;
    case LockMode::kIX:
    case LockMode::kSIX:
    case LockMode::kX:
      return WaitClass::kExclusive;
    case LockMode::kAssert:
      return WaitClass::kAssert;
    case LockMode::kComp:
      return WaitClass::kComp;
  }
  return WaitClass::kShared;
}

std::string_view WaitClassName(WaitClass wait_class) {
  switch (wait_class) {
    case WaitClass::kShared: return "shared";
    case WaitClass::kExclusive: return "exclusive";
    case WaitClass::kAssert: return "assert";
    case WaitClass::kComp: return "comp";
  }
  return "?";
}

std::string_view OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kGranted: return "GRANTED";
    case Outcome::kWaiting: return "WAITING";
    case Outcome::kAborted: return "ABORTED";
  }
  return "?";
}

}  // namespace accdb::lock
