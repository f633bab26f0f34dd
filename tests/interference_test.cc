#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/interference.h"
#include "acc/spec.h"
#include "acc/spec_derive.h"
#include "lock/types.h"
#include "orderproc/order_system.h"
#include "storage/database.h"
#include "tpcc/tpcc_db.h"

namespace accdb::acc {
namespace {

using lock::HolderView;
using lock::LockMode;
using lock::RequestContext;
using lock::RequestView;

// --- Catalog ---

TEST(CatalogTest, RegistersDistinctIds) {
  Catalog catalog;
  lock::ActorId s1 = catalog.RegisterStepType("s1");
  lock::ActorId p1 = catalog.RegisterPrefix("p1");
  lock::AssertionId a1 = catalog.RegisterAssertion("a1", 2);
  EXPECT_NE(s1, lock::kNoActor);
  EXPECT_NE(s1, p1);
  EXPECT_EQ(catalog.ActorName(s1), "s1");
  EXPECT_EQ(catalog.ActorName(p1), "p1");
  EXPECT_EQ(catalog.AssertionName(a1), "a1");
  EXPECT_EQ(catalog.AssertionKeyArity(a1), 2);
  EXPECT_TRUE(catalog.IsStepType(s1));
  EXPECT_FALSE(catalog.IsStepType(p1));
}

// --- InterferenceTable ---

class InterferenceTableTest : public ::testing::Test {
 protected:
  InterferenceTableTest() {
    step_ = catalog_.RegisterStepType("writer");
    other_step_ = catalog_.RegisterStepType("other");
    assertion_ = catalog_.RegisterAssertion("inv", 1);
  }

  Catalog catalog_;
  InterferenceTable table_;
  lock::ActorId step_, other_step_;
  lock::AssertionId assertion_;
};

TEST_F(InterferenceTableTest, DefaultIsConservative) {
  EXPECT_EQ(table_.Get(step_, assertion_), Interference::kAlways);
  EXPECT_TRUE(table_.Interferes(step_, {1}, assertion_, {2}));
}

TEST_F(InterferenceTableTest, NoneNeverInterferes) {
  table_.Set(step_, assertion_, Interference::kNone);
  EXPECT_FALSE(table_.Interferes(step_, {1}, assertion_, {1}));
  // Other steps stay conservative.
  EXPECT_TRUE(table_.Interferes(other_step_, {1}, assertion_, {1}));
}

TEST_F(InterferenceTableTest, SameKeyRefinement) {
  table_.Set(step_, assertion_, Interference::kIfSameKey);
  EXPECT_TRUE(table_.Interferes(step_, {7}, assertion_, {7}));
  EXPECT_FALSE(table_.Interferes(step_, {7}, assertion_, {8}));
}

TEST_F(InterferenceTableTest, PrefixComparisonOverCommonLength) {
  table_.Set(step_, assertion_, Interference::kIfSameKey);
  // Writer keys {w, d}; assertion keys {w, d, o}: same district conflicts.
  EXPECT_TRUE(table_.Interferes(step_, {1, 2}, assertion_, {1, 2, 99}));
  EXPECT_FALSE(table_.Interferes(step_, {1, 3}, assertion_, {1, 2, 99}));
}

TEST_F(InterferenceTableTest, EmptyKeysCannotRefine) {
  table_.Set(step_, assertion_, Interference::kIfSameKey);
  EXPECT_TRUE(table_.Interferes(step_, {}, assertion_, {1}));
  EXPECT_TRUE(table_.Interferes(step_, {1}, assertion_, {}));
}

TEST_F(InterferenceTableTest, RefinementDisableDowngradesToAlways) {
  table_.Set(step_, assertion_, Interference::kIfSameKey);
  table_.set_key_refinement(false);
  EXPECT_EQ(table_.Get(step_, assertion_), Interference::kAlways);
  EXPECT_TRUE(table_.Interferes(step_, {7}, assertion_, {8}));
  table_.set_key_refinement(true);
  EXPECT_FALSE(table_.Interferes(step_, {7}, assertion_, {8}));
}

// --- AccConflictResolver ---

class AccResolverTest : public ::testing::Test {
 protected:
  AccResolverTest() : resolver_(&table_) {
    step_ = catalog_.RegisterStepType("writer");
    prefix_ = catalog_.RegisterPrefix("partial");
    assertion_ = catalog_.RegisterAssertion("inv", 1);
    table_.Set(step_, assertion_, Interference::kIfSameKey);
    table_.Set(prefix_, assertion_, Interference::kIfSameKey);
  }

  RequestContext AssertCtx(int64_t key, lock::ActorId prefix) {
    RequestContext ctx;
    ctx.actor = prefix;
    ctx.assertion = assertion_;
    ctx.keys = {key};
    return ctx;
  }

  RequestContext WriterCtx(int64_t key) {
    RequestContext ctx;
    ctx.actor = step_;
    ctx.keys = {key};
    return ctx;
  }

  Catalog catalog_;
  InterferenceTable table_;
  AccConflictResolver resolver_;
  lock::ActorId step_, prefix_;
  lock::AssertionId assertion_;
};

TEST_F(AccResolverTest, WriteVsAssertSameKeyConflicts) {
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext req_ctx = WriterCtx(7);
  EXPECT_TRUE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kX, &req_ctx, false}));
}

TEST_F(AccResolverTest, WriteVsAssertDifferentKeyPasses) {
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext req_ctx = WriterCtx(8);
  EXPECT_FALSE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kX, &req_ctx, false}));
}

TEST_F(AccResolverTest, UnknownWriterStepConflicts) {
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext legacy;  // actor = kNoActor: not in the table.
  EXPECT_TRUE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kX, &legacy, false}));
}

TEST_F(AccResolverTest, ReadNeverConflictsWithAssert) {
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext req_ctx = WriterCtx(7);
  EXPECT_FALSE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kS, &req_ctx, false}));
}

TEST_F(AccResolverTest, CompensationWithCompMarkerBypassesAssert) {
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext comp_ctx = WriterCtx(7);
  comp_ctx.for_compensation = true;
  // Without the kComp marker on the item, interference applies.
  EXPECT_TRUE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kX, &comp_ctx, false}));
  // With the marker (the compensating txn's forward steps wrote the item),
  // the compensating step never waits for assertional locks.
  EXPECT_FALSE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kX, &comp_ctx, true}));
}

TEST_F(AccResolverTest, AssertRequestChecksHolderPrefix) {
  // Holder: assertional lock whose owner's prefix interferes (same key).
  RequestContext holder_ctx = AssertCtx(7, prefix_);
  RequestContext req_ctx = AssertCtx(7, lock::kNoActor);
  EXPECT_TRUE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kAssert, &req_ctx, false}));
  // Different key: the initiation check passes.
  RequestContext req_other = AssertCtx(8, lock::kNoActor);
  EXPECT_FALSE(resolver_.Conflicts(
      HolderView{1, LockMode::kAssert, &holder_ctx},
      RequestView{2, LockMode::kAssert, &req_other, false}));
}

TEST_F(AccResolverTest, AssertRequestVsMidStepWriter) {
  RequestContext holder_ctx = WriterCtx(7);  // Mid-step X holder.
  RequestContext req_ctx = AssertCtx(7, lock::kNoActor);
  EXPECT_TRUE(resolver_.Conflicts(
      HolderView{1, LockMode::kX, &holder_ctx},
      RequestView{2, LockMode::kAssert, &req_ctx, false}));
  RequestContext req_other = AssertCtx(9, lock::kNoActor);
  EXPECT_FALSE(resolver_.Conflicts(
      HolderView{1, LockMode::kX, &holder_ctx},
      RequestView{2, LockMode::kAssert, &req_other, false}));
}

TEST_F(AccResolverTest, ConventionalFallsThroughToMatrix) {
  RequestContext a, b;
  EXPECT_TRUE(resolver_.Conflicts(HolderView{1, LockMode::kX, &a},
                                  RequestView{2, LockMode::kS, &b, false}));
  EXPECT_FALSE(resolver_.Conflicts(HolderView{1, LockMode::kS, &a},
                                   RequestView{2, LockMode::kS, &b, false}));
}

// --- Key-arity validation (InterferenceTable::set_catalog) ---

TEST_F(InterferenceTableTest, ArityBoundsTheComparedPrefix) {
  // assertion_ was registered with arity 1: only position 0 is a declared
  // discriminator. Without the catalog wired, the comparison treats the
  // actor's trailing key dimensions as if they discriminated the predicate.
  table_.Set(step_, assertion_, Interference::kIfSameKey);
  table_.set_catalog(&catalog_);
  // An (erroneous, over-long) assertion key vector is conservative: a
  // malformed instance may not silently pass the initiation check.
  EXPECT_TRUE(table_.Interferes(step_, {5, 7}, assertion_, {5, 9}));
  // Actor keys longer than the assertion's arity are legitimate (the
  // actor's own trailing dimensions) — only position 0 is compared.
  EXPECT_TRUE(table_.Interferes(step_, {1, 2}, assertion_, {1}));
  EXPECT_FALSE(table_.Interferes(step_, {2, 2}, assertion_, {1}));
}

TEST_F(InterferenceTableTest, ArityDoesNotChangeWellFormedComparisons) {
  lock::AssertionId wide = catalog_.RegisterAssertion("wide", 3);
  table_.Set(step_, wide, Interference::kIfSameKey);
  table_.set_catalog(&catalog_);
  // Instances within the declared arity behave exactly as before.
  EXPECT_TRUE(table_.Interferes(step_, {1, 2}, wide, {1, 2, 99}));
  EXPECT_FALSE(table_.Interferes(step_, {1, 3}, wide, {1, 2, 99}));
  EXPECT_TRUE(table_.Interferes(step_, {}, wide, {1}));
}

// --- Derivation from specs (spec_derive.h) ---

// Minimal two-table schema for derivation tests: a "rows" table and a
// "side" table with a few columns each.
class SpecDeriveTest : public ::testing::Test {
 protected:
  SpecDeriveTest() {
    step_ = catalog_.RegisterStepType("writer");
    assert_ = catalog_.RegisterAssertion("inv", 2);
  }

  // An assertion over table 1, reading existence + column 2, keys {a, b}
  // both pinning.
  spec::AssertionSpec Inv() {
    spec::AssertionSpec q;
    q.decl = assert_;
    q.key_dims = {"a", "b"};
    q.footprint.push_back(
        {/*table=*/1, {spec::kExistence, 2}, /*key_positions=*/{0, 1}, {}});
    return q;
  }

  spec::StepSpec Step(std::vector<spec::WriteAccess> writes,
                      std::vector<std::string> dims = {"a", "b"}) {
    spec::StepSpec s;
    s.actor = step_;
    s.key_dims = std::move(dims);
    s.writes = std::move(writes);
    return s;
  }

  Catalog catalog_;
  lock::ActorId step_;
  lock::AssertionId assert_;
};

TEST_F(SpecDeriveTest, DisjointTablesDeriveNone) {
  spec::StepSpec s = Step({{/*table=*/9, spec::WriteKind::kInsert, {}, {0, 1},
                            spec::WriteScope::kShared, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kNone);
}

TEST_F(SpecDeriveTest, DisjointColumnsDeriveNone) {
  // Mutating column 5 of table 1 cannot change a predicate over column 2
  // and row existence.
  spec::StepSpec s = Step({{1, spec::WriteKind::kMutate, {5}, {0, 1},
                            spec::WriteScope::kShared, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kNone);
}

TEST_F(SpecDeriveTest, InsertOverlapsExistenceEvenWithNoColumns) {
  spec::StepSpec s = Step({{1, spec::WriteKind::kInsert, {}, {0, 1},
                            spec::WriteScope::kShared, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kIfSameKey);
}

TEST_F(SpecDeriveTest, FullyPinnedOverlapDerivesIfSameKey) {
  spec::StepSpec s = Step({{1, spec::WriteKind::kMutate, {2}, {0, 1},
                            spec::WriteScope::kShared, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kIfSameKey);
}

TEST_F(SpecDeriveTest, PartiallyPinnedOverlapDerivesAlways) {
  // The write pins only key position 0; position 1 of the common prefix
  // does not separate instances, so same-key refinement would be unsound
  // (Interferes proves disjointness from ANY differing common position).
  spec::StepSpec s = Step({{1, spec::WriteKind::kMutate, {2}, {0},
                            spec::WriteScope::kShared, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kAlways);
}

TEST_F(SpecDeriveTest, MisalignedKeyDimsDeriveAlways) {
  // Step keys {x, b}: position 0 names a different dimension than the
  // assertion's, so positional comparison is meaningless.
  spec::StepSpec s = Step({{1, spec::WriteKind::kMutate, {2}, {0, 1},
                            spec::WriteScope::kShared, false}},
                          {"x", "b"});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kAlways);
}

TEST_F(SpecDeriveTest, CommutativeWriteToleratedByDeclaredColumns) {
  spec::AssertionSpec q;
  q.decl = assert_;
  q.key_dims = {"a", "b"};
  q.footprint.push_back({1, {2}, {0, 1}, /*commute_tolerant=*/{2}});
  spec::StepSpec s = Step({{1, spec::WriteKind::kMutate, {2}, {0, 1},
                            spec::WriteScope::kShared, /*commutative=*/true}});
  EXPECT_EQ(spec::DeriveStepEntry(s, q), Interference::kNone);
  // The same write as an arbitrary overwrite is charged.
  s.writes[0].commutative = false;
  EXPECT_EQ(spec::DeriveStepEntry(s, q), Interference::kIfSameKey);
}

TEST_F(SpecDeriveTest, FreshAndOwnScopesAreDischarged) {
  spec::StepSpec s = Step({{1, spec::WriteKind::kInsert, {}, {0, 1},
                            spec::WriteScope::kFresh, false}});
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kNone);
  s.writes[0].scope = spec::WriteScope::kOwn;
  EXPECT_EQ(spec::DeriveStepEntry(s, Inv()), Interference::kNone);
}

TEST_F(SpecDeriveTest, PrefixFoldsBreaksFromConstituentSteps) {
  lock::ActorId prefix = catalog_.RegisterPrefix("partial");
  lock::AssertionId keyless = catalog_.RegisterAssertion("keyless", 0);

  spec::SpecRegistry reg;
  spec::StepSpec s = Step({});
  s.breaks = {assert_};
  reg.DeclareStep(s);
  reg.DeclareAssertion(Inv());
  spec::AssertionSpec k;
  k.decl = keyless;
  reg.DeclareAssertion(k);
  spec::PrefixSpec p;
  p.actor = prefix;
  p.steps = {step_};
  reg.DeclarePrefix(p);

  // Keyed broken assertion folds to kIfSameKey (the holder's own instance).
  EXPECT_EQ(spec::DerivePrefixEntry(p, Inv(), reg),
            Interference::kIfSameKey);
  // A keyless broken assertion cannot be discriminated: kAlways.
  spec::SpecRegistry reg2;
  spec::StepSpec s2 = Step({});
  s2.breaks = {keyless};
  reg2.DeclareStep(s2);
  EXPECT_EQ(spec::DerivePrefixEntry(p, k, reg2), Interference::kAlways);
  // A prefix containing a step with no registered spec is conservative.
  spec::PrefixSpec unknown;
  unknown.actor = prefix;
  unknown.steps = {lock::ActorId{999}};
  EXPECT_EQ(spec::DerivePrefixEntry(unknown, Inv(), reg),
            Interference::kAlways);
  // A step that breaks nothing folds to kNone.
  spec::SpecRegistry reg3;
  reg3.DeclareStep(Step({}));
  EXPECT_EQ(spec::DerivePrefixEntry(p, Inv(), reg3), Interference::kNone);
}

// --- System tables: the derived matrices, pinned as goldens ---
//
// Each system's `interference` member is DeriveInterferenceTable over its
// specs. The goldens are the output of `interference_dump tpcc|orderproc`;
// a footprint change that moves any cell fails here until the golden is
// regenerated, so the moved cells show up as a reviewed golden diff.

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(ACCDB_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "golden file missing: " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Every catalog actor and assertion has a spec (an actor without one would
// silently keep the table's kAlways default), and each assertion's declared
// key arity is the length of its spec's key dims.
template <typename System>
void ExpectSpecsCoverCatalog(const System& system) {
  const Catalog& catalog = system.catalog;
  for (size_t a = 1; a <= catalog.actor_count(); ++a) {
    lock::ActorId actor = static_cast<lock::ActorId>(a);
    if (catalog.IsStepType(actor)) {
      EXPECT_NE(system.specs.FindStep(actor), nullptr)
          << catalog.ActorName(actor);
    } else {
      EXPECT_NE(system.specs.FindPrefix(actor), nullptr)
          << catalog.ActorName(actor);
    }
  }
  for (size_t q = 1; q <= catalog.assertion_count(); ++q) {
    lock::AssertionId decl = static_cast<lock::AssertionId>(q);
    const spec::AssertionSpec* assertion = system.specs.FindAssertion(decl);
    ASSERT_NE(assertion, nullptr) << catalog.AssertionName(decl);
    EXPECT_EQ(static_cast<size_t>(catalog.AssertionKeyArity(decl)),
              assertion->key_dims.size())
        << catalog.AssertionName(decl);
  }
}

TEST(SystemInterferenceTest, TpccMatrixMatchesGolden) {
  storage::Database db;
  tpcc::TpccDb tpcc(&db);
  ExpectSpecsCoverCatalog(tpcc);
  EXPECT_EQ(spec::FormatInterferenceMatrix("tpcc", tpcc.catalog,
                                           tpcc.interference),
            ReadGolden("interference_tpcc.md"));
}

TEST(SystemInterferenceTest, OrderprocMatrixMatchesGolden) {
  storage::Database db;
  orderproc::OrderSystem system(&db);
  ExpectSpecsCoverCatalog(system);
  EXPECT_EQ(spec::FormatInterferenceMatrix("orderproc", system.catalog,
                                           system.interference),
            ReadGolden("interference_orderproc.md"));
}

// Negative control: drop D2's stamps of the order it delivers (the ORDERS
// o_carrier_id write and the ORDER-LINE ol_delivery_d write) from a copy of
// the TPC-C specs. The derivation must notice — the matrix differs from the
// golden — and only in the tpcc.d2 row.
TEST(SystemInterferenceTest, WeakenedD2FootprintMovesOnlyTheD2Row) {
  storage::Database db;
  tpcc::TpccDb tpcc(&db);
  spec::SpecRegistry weakened;
  for (spec::StepSpec step : tpcc.specs.steps()) {
    if (step.actor == tpcc.step_d2) {
      auto stamps = [&](const spec::WriteAccess& write) {
        return write.table == tpcc.orders->id() ||
               write.table == tpcc.order_line->id();
      };
      size_t before = step.writes.size();
      step.writes.erase(
          std::remove_if(step.writes.begin(), step.writes.end(), stamps),
          step.writes.end());
      EXPECT_EQ(before - step.writes.size(), 2u);
    }
    weakened.DeclareStep(std::move(step));
  }
  for (const spec::PrefixSpec& prefix : tpcc.specs.prefixes()) {
    weakened.DeclarePrefix(prefix);
  }
  for (const spec::AssertionSpec& assertion : tpcc.specs.assertions()) {
    weakened.DeclareAssertion(assertion);
  }

  std::vector<std::string> golden =
      Lines(ReadGolden("interference_tpcc.md"));
  std::vector<std::string> matrix = Lines(spec::FormatInterferenceMatrix(
      "tpcc", tpcc.catalog,
      spec::DeriveInterferenceTable(weakened, tpcc.catalog)));
  ASSERT_EQ(matrix.size(), golden.size());
  int moved = 0;
  for (size_t i = 0; i < golden.size(); ++i) {
    if (matrix[i] == golden[i]) continue;
    ++moved;
    EXPECT_EQ(matrix[i].rfind("| tpcc.d2 ", 0), 0u) << matrix[i];
  }
  EXPECT_EQ(moved, 1);
}

}  // namespace
}  // namespace accdb::acc
