#include "acc/interference.h"

#include <algorithm>

namespace accdb::acc {

void InterferenceTable::Set(lock::ActorId actor, lock::AssertionId assertion,
                            Interference v) {
  entries_[PairKey(actor, assertion)] = v;
}

Interference InterferenceTable::Get(lock::ActorId actor,
                                    lock::AssertionId assertion) const {
  auto it = entries_.find(PairKey(actor, assertion));
  if (it == entries_.end()) return Interference::kAlways;
  if (it->second == Interference::kIfSameKey && !key_refinement_) {
    return Interference::kAlways;
  }
  return it->second;
}

bool InterferenceTable::Interferes(
    lock::ActorId actor, const lock::KeyList& actor_keys,
    lock::AssertionId assertion, const lock::KeyList& assertion_keys) const {
  switch (Get(actor, assertion)) {
    case Interference::kNone:
      return false;
    case Interference::kAlways:
      return true;
    case Interference::kIfSameKey: {
      size_t n = std::min(actor_keys.size(), assertion_keys.size());
      if (catalog_ != nullptr) {
        size_t arity =
            static_cast<size_t>(catalog_->AssertionKeyArity(assertion));
        // An instance carrying more keys than its declaration has
        // discriminators is malformed: positions past the arity were never
        // part of the design-time analysis, so a mismatch there proves
        // nothing. Conservative.
        if (assertion_keys.size() > arity) return true;
        // An actor's key vector may legitimately exceed the arity (its
        // trailing dimensions are its own); compare only declared
        // discriminator positions.
        n = std::min(n, arity);
      }
      if (n == 0) return true;  // Cannot refine without keys.
      for (size_t i = 0; i < n; ++i) {
        if (actor_keys[i] != assertion_keys[i]) return false;
      }
      return true;
    }
  }
  return true;
}

}  // namespace accdb::acc
