#include "acc/spec_derive.h"

#include <algorithm>

#include "common/string_util.h"

namespace accdb::acc::spec {

namespace {

char CellChar(Interference v) {
  switch (v) {
    case Interference::kNone:
      return '-';
    case Interference::kIfSameKey:
      return 'K';
    case Interference::kAlways:
      return 'A';
  }
  return '?';
}

bool Contains(const std::vector<int>& xs, int x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// The columns of `read` a write of `write` can change; empty = no overlap.
std::vector<int> OverlappedColumns(const WriteAccess& write,
                                   const ReadAccess& read) {
  if (write.kind != WriteKind::kMutate) {
    // Insert/delete changes row existence and every column the predicate
    // ranges over.
    return read.columns;
  }
  std::vector<int> overlapped;
  for (int c : write.columns) {
    if (c != kExistence && Contains(read.columns, c)) overlapped.push_back(c);
  }
  return overlapped;
}

// True iff the key vectors discriminate this (write, read) pair: the common
// prefix of the two dim lists is non-empty and every position in it names
// the same dimension on both sides AND pins the rows on both sides. The
// runtime comparison declares disjointness on the FIRST differing common
// position, so each position must separate instances on its own.
bool FullyDiscriminated(const StepSpec& step, const WriteAccess& write,
                        const AssertionSpec& assertion,
                        const ReadAccess& read) {
  size_t common =
      std::min(step.key_dims.size(), assertion.key_dims.size());
  if (common == 0) return false;
  for (size_t i = 0; i < common; ++i) {
    if (step.key_dims[i] != assertion.key_dims[i]) return false;
    if (!Contains(write.key_positions, static_cast<int>(i))) return false;
    if (!Contains(read.key_positions, static_cast<int>(i))) return false;
  }
  return true;
}

}  // namespace

Interference DeriveStepEntry(const StepSpec& step,
                             const AssertionSpec& assertion) {
  Interference worst = Interference::kNone;
  for (const WriteAccess& write : step.writes) {
    // Provenance discharge (rule 2): fresh identities cannot be named by
    // existing instances; own-state effects are the prefix entry's burden.
    if (write.scope != WriteScope::kShared) continue;
    for (const ReadAccess& read : assertion.footprint) {
      if (write.table != read.table) continue;
      std::vector<int> overlapped = OverlappedColumns(write, read);
      if (overlapped.empty()) continue;
      // Commutativity discharge (rule 3): a commutative delta to columns
      // the predicate constrains only up to such deltas.
      if (write.kind == WriteKind::kMutate && write.commutative) {
        bool all_tolerant = true;
        for (int c : overlapped) {
          if (!Contains(read.commute_tolerant, c)) {
            all_tolerant = false;
            break;
          }
        }
        if (all_tolerant) continue;
      }
      Interference pair =
          FullyDiscriminated(step, write, assertion, read)
              ? Interference::kIfSameKey
              : Interference::kAlways;
      worst = std::max(worst, pair);
      if (worst == Interference::kAlways) return worst;
    }
  }
  return worst;
}

Interference DerivePrefixEntry(const PrefixSpec& prefix,
                               const AssertionSpec& assertion,
                               const SpecRegistry& registry) {
  for (lock::ActorId actor : prefix.steps) {
    const StepSpec* step = registry.FindStep(actor);
    if (step == nullptr) {
      // An unspecified constituent step: nothing is known about what its
      // partial execution falsified. Conservative.
      return Interference::kAlways;
    }
    for (lock::AssertionId broken : step->breaks) {
      if (broken != assertion.decl) continue;
      // The falsified instance is the holder's own, named by its key
      // vector — discriminable iff the assertion is keyed at all.
      return assertion.key_dims.empty() ? Interference::kAlways
                                        : Interference::kIfSameKey;
    }
  }
  return Interference::kNone;
}

InterferenceTable DeriveInterferenceTable(const SpecRegistry& registry,
                                          const Catalog& catalog) {
  InterferenceTable derived;
  derived.set_catalog(&catalog);
  for (const AssertionSpec& assertion : registry.assertions()) {
    for (const StepSpec& step : registry.steps()) {
      derived.Set(step.actor, assertion.decl,
                  DeriveStepEntry(step, assertion));
    }
    for (const PrefixSpec& prefix : registry.prefixes()) {
      derived.Set(prefix.actor, assertion.decl,
                  DerivePrefixEntry(prefix, assertion, registry));
    }
  }
  return derived;
}

std::string FormatInterferenceMatrix(const char* title, const Catalog& catalog,
                                     const InterferenceTable& table) {
  std::string out = StrFormat(
      "## %s\n\nCells: `-` none, `K` if-same-key, `A` always.\n\n", title);
  int name_width = 8;
  for (size_t a = 1; a <= catalog.actor_count(); ++a) {
    name_width =
        std::max(name_width, static_cast<int>(catalog.ActorName(a).size()));
  }
  out += StrFormat("| %-*s |", name_width, "actor");
  for (size_t q = 1; q <= catalog.assertion_count(); ++q) {
    out += StrFormat(" %s |", std::string(catalog.AssertionName(q)).c_str());
  }
  out += StrFormat("\n| %s |", std::string(name_width, '-').c_str());
  for (size_t q = 1; q <= catalog.assertion_count(); ++q) {
    out += " " + std::string(catalog.AssertionName(q).size(), '-') + " |";
  }
  out += "\n";
  for (size_t a = 1; a <= catalog.actor_count(); ++a) {
    out += StrFormat("| %-*s |", name_width,
                     std::string(catalog.ActorName(a)).c_str());
    for (size_t q = 1; q <= catalog.assertion_count(); ++q) {
      int width = static_cast<int>(catalog.AssertionName(q).size());
      out += StrFormat(" %-*c |", std::max(width, 1), CellChar(table.Get(a, q)));
    }
    out += "\n";
  }
  return out;
}

}  // namespace accdb::acc::spec
