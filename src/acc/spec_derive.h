// Derivation of interference tables from step/assertion specs. The derived
// table is the one the engine runs on: TpccDb and OrderSystem install
// DeriveInterferenceTable's result as their `interference` member.
//
// Derivation rules (DESIGN.md §14). For a step S and assertion Q, consider
// every pair of a WriteAccess of S and a ReadAccess of Q on the same table:
//
//   1. No such pair OVERLAPS => kNone. A pair overlaps when the write can
//      change something the predicate reads: an insert or delete overlaps
//      any read on the table (it changes row existence and every column); a
//      mutate overlaps iff the written and read column sets intersect
//      (kExistence is never mutated).
//   2. Writes with scope kFresh or kOwn are discharged by provenance, not
//      overlap: a fresh identity cannot be named by any existing assertion
//      instance, and own-state effects are charged to the owner's prefix
//      entry (via StepSpec::breaks) instead.
//   3. A commutative mutate whose overlapped columns are all declared
//      commute-tolerant by the read is discharged (the d_next_o_id / d_ytd
//      field-level insight of §5.1).
//   4. Every remaining overlap is charged. It derives kIfSameKey iff the
//      key vectors discriminate it: the common prefix of S's and Q's key
//      dims is non-empty, and EVERY position of that prefix (a) names the
//      same dimension on both sides and (b) pins the written rows and the
//      predicate's rows alike. Anything less derives kAlways — the runtime
//      comparison (InterferenceTable::Interferes) treats a mismatch at any
//      common position as proof of disjointness, which is only sound when
//      each position individually separates the instances.
//   5. The entry for (S, Q) is the most severe among its charged pairs
//      (kNone < kIfSameKey < kAlways).
//
// Prefix entries fold from the constituent steps' `breaks` declarations: a
// prefix containing a step that breaks Q gets kIfSameKey on Q when Q is
// keyed (the falsified instance is the holder's own, named by its keys) and
// kAlways when Q has no discriminators; otherwise kNone.
//
// FormatInterferenceMatrix renders a table as the markdown matrix that
// tools/interference_dump prints and tests/golden/interference_*.md pin, so a
// footprint change shows up as a reviewed golden diff.

#ifndef ACCDB_ACC_SPEC_DERIVE_H_
#define ACCDB_ACC_SPEC_DERIVE_H_

#include <string>

#include "acc/catalog.h"
#include "acc/interference.h"
#include "acc/spec.h"

namespace accdb::acc::spec {

// Derives the entry for one step against one assertion.
Interference DeriveStepEntry(const StepSpec& step,
                             const AssertionSpec& assertion);

// Derives the entry for one prefix against one assertion by folding the
// constituent steps' `breaks`.
Interference DerivePrefixEntry(const PrefixSpec& prefix,
                               const AssertionSpec& assertion,
                               const SpecRegistry& registry);

// Derives the full table: one entry per declared (step|prefix, assertion)
// pair, with `catalog` attached to bound key refinement by the declared
// arities. Pairs not covered by the registry keep the table's kAlways
// default.
InterferenceTable DeriveInterferenceTable(const SpecRegistry& registry,
                                          const Catalog& catalog);

// Renders `table` as a markdown matrix under the heading `## title`: one row
// per catalog actor, one column per catalog assertion, cells `-` (kNone),
// `K` (kIfSameKey) and `A` (kAlways), as Get returns them.
std::string FormatInterferenceMatrix(const char* title, const Catalog& catalog,
                                     const InterferenceTable& table);

}  // namespace accdb::acc::spec

#endif  // ACCDB_ACC_SPEC_DERIVE_H_
