#include <gtest/gtest.h>

#include <map>

#include "common/money.h"
#include "storage/database.h"
#include "tpcc/consistency.h"
#include "tpcc/input.h"
#include "tpcc/loader.h"
#include "tpcc/tpcc_db.h"

namespace accdb::tpcc {
namespace {

TEST(LoaderTest, CustomerLastNames) {
  EXPECT_EQ(CustomerLastName(0), "BARBARBAR");
  EXPECT_EQ(CustomerLastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(CustomerLastName(999), "EINGEINGEING");
}

class LoadedDbTest : public ::testing::Test {
 protected:
  LoadedDbTest() : db_(&database_) {
    scale_ = ScaleConfig::Test();
    LoadDatabase(db_, scale_, /*seed=*/42);
  }

  storage::Database database_;
  TpccDb db_;
  ScaleConfig scale_;
};

TEST_F(LoadedDbTest, Cardinalities) {
  EXPECT_EQ(db_.warehouse->size(), 1u);
  EXPECT_EQ(db_.district->size(), 10u);
  EXPECT_EQ(db_.item->size(), static_cast<size_t>(scale_.item_count));
  EXPECT_EQ(db_.stock->size(), static_cast<size_t>(scale_.item_count));
  EXPECT_EQ(db_.customer->size(),
            static_cast<size_t>(10 * scale_.customers_per_district));
  EXPECT_EQ(db_.history->size(), db_.customer->size());
  EXPECT_EQ(db_.orders->size(),
            static_cast<size_t>(10 * scale_.initial_orders_per_district));
  EXPECT_EQ(db_.new_order->size(), 0u);  // Loaded fully delivered.
}

TEST_F(LoadedDbTest, OnlyItemIsFrozen) {
  // ITEM is the one table no transaction writes.
  for (const storage::Table* table : database_.AllTables()) {
    EXPECT_EQ(table->frozen(), table == db_.item) << table->name();
  }
  EXPECT_EQ(db_.item->Insert({storage::Value(int64_t{0}),
                              storage::Value(int64_t{1}),
                              storage::Value("x"), storage::Value(Money()),
                              storage::Value("x")})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(LoadedDbTest, FreshDatabaseIsStrictlyConsistent) {
  ConsistencyReport report = CheckConsistency(db_, /*strict=*/true);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations[0]);
}

TEST_F(LoadedDbTest, DistrictNextOrderIds) {
  for (storage::RowId id : db_.district->ScanAll()) {
    const storage::Row& row = *db_.district->Get(id);
    EXPECT_EQ(row[db_.d_next_o_id].AsInt64(),
              scale_.initial_orders_per_district + 1);
  }
}

TEST_F(LoadedDbTest, CustomersFindableByLastName) {
  // Customer 1 has name number 0 = BARBARBAR.
  auto matches = db_.customer->ScanIndexPrefix(
      db_.customer_by_last, storage::Key(1, 1, std::string("BARBARBAR")));
  EXPECT_FALSE(matches.empty());
}

TEST_F(LoadedDbTest, DeterministicLoad) {
  storage::Database other_db;
  TpccDb other(&other_db);
  LoadDatabase(other, scale_, /*seed=*/42);
  EXPECT_EQ(other.customer->size(), db_.customer->size());
  // Spot-check a customer row matches exactly.
  auto a = db_.customer->LookupPk(storage::Key(1, 3, 7));
  auto b = other.customer->LookupPk(storage::Key(1, 3, 7));
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*db_.customer->Get(*a), *other.customer->Get(*b));
}

// --- Input generator ---

TEST(InputGenTest, MixApproximatesWeights) {
  InputGenConfig config;
  config.scale = ScaleConfig::Test();
  InputGenerator gen(config, 7);
  std::map<TxnType, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[gen.NextType()];
  EXPECT_NEAR(counts[TxnType::kNewOrder] / static_cast<double>(n), 0.45,
              0.02);
  EXPECT_NEAR(counts[TxnType::kPayment] / static_cast<double>(n), 0.43, 0.02);
  EXPECT_NEAR(counts[TxnType::kDelivery] / static_cast<double>(n), 0.04,
              0.01);
}

TEST(InputGenTest, NewOrderInputsInRange) {
  InputGenConfig config;
  config.scale = ScaleConfig::Test();
  InputGenerator gen(config, 9);
  int rollbacks = 0;
  for (int i = 0; i < 2000; ++i) {
    NewOrderInput input = gen.NextNewOrder();
    EXPECT_EQ(input.w_id, 1);
    EXPECT_GE(input.d_id, 1);
    EXPECT_LE(input.d_id, 10);
    EXPECT_GE(input.c_id, 1);
    EXPECT_LE(input.c_id, config.scale.customers_per_district);
    EXPECT_GE(input.lines.size(), 5u);
    EXPECT_LE(input.lines.size(), 15u);
    for (const auto& line : input.lines) {
      EXPECT_GE(line.item_id, 1);
      EXPECT_LE(line.item_id, config.scale.item_count);
      EXPECT_GE(line.quantity, 1);
      EXPECT_LE(line.quantity, 10);
    }
    rollbacks += input.rollback;
  }
  EXPECT_GT(rollbacks, 2);
  EXPECT_LT(rollbacks, 80);  // ~1%.
}

TEST(InputGenTest, SkewedDistrictsConcentrate) {
  InputGenConfig config;
  config.scale = ScaleConfig::Test();
  config.skew_districts = true;
  config.hot_districts = 1;
  config.hot_fraction = 0.6;
  InputGenerator gen(config, 11);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.NextNewOrder().d_id == 1) ++hot;
  }
  EXPECT_NEAR(hot / static_cast<double>(n), 0.6, 0.02);
}

TEST(InputGenTest, PaymentMixesNameAndIdLookup) {
  InputGenConfig config;
  config.scale = ScaleConfig::Test();
  InputGenerator gen(config, 13);
  int by_name = 0;
  for (int i = 0; i < 5000; ++i) by_name += gen.NextPayment().by_last_name;
  EXPECT_NEAR(by_name / 5000.0, 0.6, 0.03);
}

TEST(InputGenTest, OrderSizeKnob) {
  InputGenConfig config;
  config.scale = ScaleConfig::Test();
  config.min_order_lines = 20;
  config.max_order_lines = 30;
  InputGenerator gen(config, 15);
  for (int i = 0; i < 200; ++i) {
    size_t n = gen.NextNewOrder().lines.size();
    EXPECT_GE(n, 20u);
    EXPECT_LE(n, 30u);
  }
}

}  // namespace
}  // namespace accdb::tpcc
