// Machine-checkable step/assertion specifications — the declarative layer
// the interference tables are derived FROM instead of hand-written.
//
// The paper derives its tables (§3.2) by analyzing the proofs of the
// decomposed transactions. This subsystem captures the proof-relevant facts
// of that analysis as data:
//
//   * Each step type declares its WRITE FOOTPRINT: which tables it writes,
//     which columns (or whole rows, for inserts/deletes), which positions of
//     the step's key vector pin the rows it touches, whether the write
//     commutes (a ytd/balance increment), and the provenance of the rows
//     (shared pre-existing state vs a freshly allocated identity vs state
//     owned by the same transaction's earlier steps).
//   * Each assertion declaration states its READ FOOTPRINT: the tables and
//     columns its predicate mentions (including row existence, via
//     kExistence), which positions of its key vector discriminate the rows,
//     and which columns the predicate tolerates commutative updates to
//     ("w_ytd includes my increment" survives other increments).
//   * Each step additionally lists the assertions its PARTIAL execution
//     leaves falsified (`breaks`) — e.g. NO1 has created an order with zero
//     lines, falsifying the completeness conjunct for that order until the
//     final loop step runs. Prefix entries fold from these.
//
// spec_derive.h turns a registry of these specs into the full
// InterferenceTable the engine runs on: the specs are the only source of its
// entries. The registry also carries optional runtime CHECKERS — a
// predicate per assertion that re-evaluates the assertion instance against
// the live database — which MakeAuditor() packages for
// EngineConfig::audit_assertions (DESIGN.md §14).

#ifndef ACCDB_ACC_SPEC_H_
#define ACCDB_ACC_SPEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "acc/program.h"
#include "lock/types.h"
#include "storage/table.h"

namespace accdb::acc {

// Verdict of one runtime re-evaluation of an assertion instance.
// kNotChecked: no checker registered, or the instance's keys are not yet
// refined enough to name concrete rows (e.g. a loop invariant announced
// before the order id is allocated).
enum class AuditVerdict : uint8_t { kNotChecked, kHolds, kViolated };

// Installed on the Engine (set_assertion_auditor); invoked by TxnContext at
// every point an interstep assertion is claimed to hold. `detail` receives a
// human-readable description on kViolated.
using AssertionAuditor =
    std::function<AuditVerdict(const AssertionInstance&, std::string* detail)>;

namespace spec {

// Column sentinel: the access covers ROW EXISTENCE on the table. Inserts
// and deletes always change it; predicates that count rows or require a row
// to exist read it. A plain column update (WriteKind::kMutate) never does.
inline constexpr int kExistence = -1;

enum class WriteKind : uint8_t {
  kMutate,  // Updates the listed columns of existing rows.
  kInsert,  // Adds rows: perturbs existence and every column.
  kDelete,  // Removes rows: perturbs existence and every column.
};

// Provenance of the rows a write touches — the spec-language form of the
// proof arguments that let the paper's analysis discharge interference
// without key comparison:
enum class WriteScope : uint8_t {
  // Pre-existing shared state: any other transaction could have an
  // assertion instance over these rows. The default; fully analyzed.
  kShared,
  // A freshly allocated identity (a new order id drawn from a counter): no
  // existing assertion instance can name it, so the write invalidates
  // nothing. ("Order ids are unique" — §4's NO1 argument.)
  kFresh,
  // State created (or being consumed) by THIS transaction's own earlier
  // steps. Other transactions are excluded from it by the owner's prefix
  // entry / kComp locks, not by this step's entry; what the partial state
  // falsifies is declared via StepSpec::breaks instead.
  kOwn,
};

// One table the step writes.
struct WriteAccess {
  storage::TableId table = 0;
  WriteKind kind = WriteKind::kMutate;
  // kMutate: the columns overwritten. kInsert/kDelete: ignored (the whole
  // row, plus existence, is affected).
  std::vector<int> columns;
  // Which positions of the step's key vector pin the rows written (e.g.
  // D2 deletes the NEW-ORDER row of {w, d, ...}: positions {0, 1}). A
  // position listed here means: two instances with different values at that
  // position touch disjoint rows of this table.
  std::vector<int> key_positions;
  WriteScope scope = WriteScope::kShared;
  // The write is a commutative delta (increment) rather than an arbitrary
  // overwrite — tolerated by reads that declare the column commute-tolerant.
  bool commutative = false;
};

// One table an assertion's predicate reads.
struct ReadAccess {
  storage::TableId table = 0;
  std::vector<int> columns;  // May include kExistence.
  // Positions of the ASSERTION's key vector that discriminate the rows the
  // predicate ranges over.
  std::vector<int> key_positions;
  // Columns whose value the predicate constrains only up to commutative
  // deltas (e.g. "d_ytd >= sum so far"): a commutative write to exactly
  // these columns cannot falsify it.
  std::vector<int> commute_tolerant;
};

// The effect footprint of one step type, keyed by the Catalog ActorId it
// was registered under.
struct StepSpec {
  lock::ActorId actor = lock::kNoActor;
  // Names of the step's key-vector dimensions, in order ("w", "d", "o").
  // Key positions in WriteAccess index into this; derivation aligns them
  // positionally against the assertion's dims.
  std::vector<std::string> key_dims;
  std::vector<WriteAccess> writes;
  // Assertions this step's completion leaves falsified until a later step
  // of the SAME transaction restores them — folded into the interference
  // entries of every prefix containing this step.
  std::vector<lock::AssertionId> breaks;
};

// The predicate footprint (and optional runtime checker) of one assertion
// declaration.
struct AssertionSpec {
  lock::AssertionId decl = lock::kNoAssertion;
  std::vector<std::string> key_dims;  // Must match the Catalog key arity.
  std::vector<ReadAccess> footprint;
  // Optional: re-evaluate the instance against the live database. Reads
  // must go through the latched Table primitives (LookupPk / GetCopy /
  // ScanPkPrefix). Return kNotChecked when `keys` is not refined enough.
  std::function<AuditVerdict(const std::vector<int64_t>& keys,
                             std::string* detail)>
      checker;
};

// A transaction prefix: which step types may have completed within it.
struct PrefixSpec {
  lock::ActorId actor = lock::kNoActor;
  std::vector<lock::ActorId> steps;
};

// The spec registry for one workload, populated alongside its Catalog.
class SpecRegistry {
 public:
  SpecRegistry() = default;
  SpecRegistry(const SpecRegistry&) = delete;
  SpecRegistry& operator=(const SpecRegistry&) = delete;

  void DeclareStep(StepSpec spec);
  void DeclarePrefix(PrefixSpec spec);
  void DeclareAssertion(AssertionSpec spec);

  const StepSpec* FindStep(lock::ActorId actor) const;
  const PrefixSpec* FindPrefix(lock::ActorId actor) const;
  const AssertionSpec* FindAssertion(lock::AssertionId decl) const;

  const std::vector<StepSpec>& steps() const { return steps_; }
  const std::vector<PrefixSpec>& prefixes() const { return prefixes_; }
  const std::vector<AssertionSpec>& assertions() const { return assertions_; }

  // Packages the registered checkers as an engine auditor. Assertions
  // without a checker audit as kNotChecked. The returned callable captures
  // `this`: the registry must outlive the engine it is installed on.
  AssertionAuditor MakeAuditor() const;

 private:
  std::vector<StepSpec> steps_;
  std::vector<PrefixSpec> prefixes_;
  std::vector<AssertionSpec> assertions_;
};

}  // namespace spec
}  // namespace accdb::acc

#endif  // ACCDB_ACC_SPEC_H_
