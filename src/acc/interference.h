// Design-time interference tables (Section 3.2).
//
// An entry answers: "does actor A (a step type, or a completed transaction
// prefix) interfere with assertion Q?" — i.e. could executing A transform a
// state where Q holds into one where Q does not. The answer is computed at
// design time by analyzing the proofs of the decomposed transactions; at run
// time only a table lookup (plus an optional key comparison) is needed,
// which is the ACC's performance advantage over predicate locks.
//
// Three entry values:
//   kNone       — A never invalidates Q; no conflict.
//   kAlways     — A may invalidate any instance of Q; conflict.
//   kIfSameKey  — A invalidates only the instance of Q whose discriminator
//                 keys match A's: the one-level ACC compares the run-time
//                 key vectors and eliminates false conflicts (e.g. a payment
//                 against district 3 does not disturb an assertion about
//                 district 7).
//
// The table default (for unregistered pairs) is kAlways: anything not
// explicitly proven non-interfering is treated conservatively, so legacy
// writers automatically conflict with every assertional lock.

#ifndef ACCDB_ACC_INTERFERENCE_H_
#define ACCDB_ACC_INTERFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "acc/catalog.h"
#include "lock/types.h"

namespace accdb::acc {

enum class Interference : uint8_t {
  kNone = 0,
  kIfSameKey,
  kAlways,
};

class InterferenceTable {
 public:
  // `key_refinement` off downgrades every kIfSameKey entry to kAlways,
  // emulating the conservative two-level ACC of [5] for the false-conflict
  // ablation.
  explicit InterferenceTable(bool key_refinement = true)
      : key_refinement_(key_refinement) {}

  void Set(lock::ActorId actor, lock::AssertionId assertion, Interference v);

  Interference Get(lock::ActorId actor, lock::AssertionId assertion) const;

  // The stored entry, ignoring the key_refinement ablation downgrade — what
  // the design-time analysis recorded. Used by the spec cross-checker and
  // the dump tool so the comparison is independent of ablation state.
  Interference GetRaw(lock::ActorId actor, lock::AssertionId assertion) const;

  // The run-time check. Key vectors are compared element-wise over their
  // common prefix; differing on any position proves the actor targets a
  // different instance. Empty key vectors cannot be refined (conservative).
  //
  // With a catalog attached (set_catalog), the comparison is bounded by the
  // assertion declaration's key arity: positions beyond the declared
  // discriminators are incidental payload and must not refine, and an
  // assertion instance carrying MORE keys than its declared arity is
  // malformed — the check falls back to conservative interference instead
  // of trusting the comparison. Without a catalog the historical
  // common-prefix behaviour is kept.
  bool Interferes(lock::ActorId actor, const lock::KeyList& actor_keys,
                  lock::AssertionId assertion,
                  const lock::KeyList& assertion_keys) const;

  void set_key_refinement(bool enabled) { key_refinement_ = enabled; }
  bool key_refinement() const { return key_refinement_; }

  // Attaches the catalog whose assertion arities bound key refinement.
  // Must outlive the table.
  void set_catalog(const Catalog* catalog) { catalog_ = catalog; }

  size_t entry_count() const { return entries_.size(); }

 private:
  static uint64_t PairKey(lock::ActorId actor, lock::AssertionId assertion) {
    return (static_cast<uint64_t>(actor) << 32) | assertion;
  }

  bool key_refinement_;
  const Catalog* catalog_ = nullptr;
  std::unordered_map<uint64_t, Interference> entries_;
};

}  // namespace accdb::acc

#endif  // ACCDB_ACC_INTERFERENCE_H_
