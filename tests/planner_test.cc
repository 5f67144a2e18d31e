// Planner unit tests: condition extraction, access-path choice, join
// ordering.

#include <gtest/gtest.h>

#include "engine/planner.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace autoindex {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto big = catalog_.CreateTable("big", Schema({{"a", ValueType::kInt},
                                                   {"b", ValueType::kInt},
                                                   {"c", ValueType::kInt}}));
    ASSERT_TRUE(big.ok());
    for (int i = 0; i < 50000; ++i) {
      ASSERT_TRUE((*big)
                      ->Insert({Value(int64_t(i)), Value(int64_t(i % 500)),
                                Value(int64_t(i % 5))})
                      .ok());
    }
    auto small = catalog_.CreateTable(
        "small", Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    ASSERT_TRUE(small.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*small)->Insert({Value(int64_t(i)), Value(int64_t(i))}).ok());
    }
    stats_ = std::make_unique<StatsManager>(&catalog_);
    planner_ = std::make_unique<Planner>(&catalog_, stats_.get(), params_);
  }

  SelectStatement& Select(const std::string& sql) {
    stmt_ = std::make_unique<Statement>();
    auto parsed = ParseSql(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    *stmt_ = std::move(*parsed);
    return *stmt_->select;
  }

  IndexStatsView View(const IndexDef& def, size_t entries) {
    IndexStatsView v;
    v.def = def;
    v.num_entries = entries;
    v.height = EstimateIndexHeight(entries, 8 * def.columns.size());
    v.size_bytes = EstimateIndexBytes(entries, 8 * def.columns.size());
    return v;
  }

  Catalog catalog_;
  CostParams params_;
  std::unique_ptr<StatsManager> stats_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<Statement> stmt_;
};

TEST_F(PlannerTest, ExtractsLiteralConditions) {
  SelectStatement& s =
      Select("SELECT a FROM big WHERE a = 5 AND b > 10 AND c <= 3");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  ASSERT_EQ(conds.size(), 3u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kEq);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeLo);
  EXPECT_FALSE(conds[1].inclusive);
  EXPECT_EQ(conds[2].kind, ColumnCondition::kRangeHi);
  EXPECT_TRUE(conds[2].inclusive);
}

TEST_F(PlannerTest, SwappedLiteralNormalized) {
  SelectStatement& s = Select("SELECT a FROM big WHERE 5 = a AND 10 < b");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kEq);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeLo);
}

TEST_F(PlannerTest, BetweenSplitsIntoTwoRanges) {
  SelectStatement& s = Select("SELECT a FROM big WHERE b BETWEEN 3 AND 9");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kRangeLo);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeHi);
}

TEST_F(PlannerTest, JoinConditionRecognized) {
  SelectStatement& s = Select(
      "SELECT big.a FROM small, big WHERE big.b = small.k AND big.c = 1");
  auto conds =
      planner_->ExtractConditions(s.where.get(), s.from, {true, false})[1];
  ASSERT_EQ(conds.size(), 2u);
  bool has_join = false;
  for (const auto& c : conds) {
    if (c.join_source.has_value()) {
      has_join = true;
      EXPECT_EQ(c.column, "b");
      EXPECT_EQ(c.join_source->table, "small");
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(PlannerTest, UnqualifiedJoinColumnsRecognized) {
  // Regression: TPC-DS-style queries use unqualified join columns
  // (ss_item_sk = i_item_sk); these must still become join conditions, or
  // joins silently degrade to cartesian products.
  SelectStatement& s = Select(
      "SELECT a FROM small, big WHERE b = k AND c = 1");
  auto conds =
      planner_->ExtractConditions(s.where.get(), s.from, {true, false})[1];
  bool has_join = false;
  for (const auto& c : conds) {
    if (c.join_source.has_value()) {
      has_join = true;
      EXPECT_EQ(c.column, "b");
      EXPECT_EQ(c.join_source->column, "k");
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(PlannerTest, UnqualifiedSharedColumnIsConditionOfItsOwnerOnly) {
  // `k` is a column of both small and other. The first FROM entry whose
  // schema has it owns it, so only that table's plan carries `k = 5`,
  // whichever table the planner places first.
  auto other = catalog_.CreateTable(
      "other", Schema({{"k", ValueType::kInt}, {"w", ValueType::kInt}}));
  ASSERT_TRUE(other.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*other)->Insert({Value(int64_t(i)), Value(int64_t(i))}).ok());
  }
  for (const std::string owner : {"small", "other"}) {
    const std::string from =
        owner == "small" ? "small, other" : "other, small";
    SelectStatement& s =
        Select("SELECT v FROM " + from + " WHERE v = w AND k = 5");
    auto plan = planner_->PlanSelect(s, {});
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->tables.size(), 2u);
    for (const TablePlan& tp : plan->tables) {
      size_t on_k = 0;
      for (const ColumnCondition& c : tp.conditions) {
        if (c.column == "k") ++on_k;
      }
      EXPECT_EQ(on_k, tp.ref.table == owner ? 1u : 0u)
          << "FROM " << from << ", plan of " << tp.ref.table;
    }
  }
}

TEST_F(PlannerTest, TopLevelOrYieldsNoSargableConditions) {
  SelectStatement& s = Select("SELECT a FROM big WHERE a = 1 OR b = 2");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  EXPECT_TRUE(conds.empty());
}

TEST_F(PlannerTest, ChoosesSelectiveIndexOverSeqScan) {
  SelectStatement& s = Select("SELECT b FROM big WHERE a = 77");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"a"}), 50000)});
  EXPECT_TRUE(decision.use_index);
  EXPECT_EQ(decision.eq_prefix_len, 1u);
  EXPECT_LT(decision.est_match_rows, 5.0);
}

TEST_F(PlannerTest, RejectsUnusableIndex) {
  SelectStatement& s = Select("SELECT b FROM big WHERE a = 77");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  // Index on (b) cannot serve an a-predicate.
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"b"}), 50000)});
  EXPECT_FALSE(decision.use_index);
}

TEST_F(PlannerTest, PrefersLongerPrefixMatch) {
  SelectStatement& s = Select("SELECT c FROM big WHERE a = 7 AND b = 100");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  auto decision = planner_->ChooseAccessPath(
      "big", conds,
      {View(IndexDef("big", {"b"}), 50000),
       View(IndexDef("big", {"a", "b"}), 50000)});
  ASSERT_TRUE(decision.use_index);
  EXPECT_EQ(decision.index.columns.size(), 2u);
  EXPECT_EQ(decision.eq_prefix_len, 2u);
}

TEST_F(PlannerTest, RangeAfterEqualityPrefix) {
  SelectStatement& s =
      Select("SELECT c FROM big WHERE b = 100 AND a > 49900");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"b", "a"}), 50000)});
  ASSERT_TRUE(decision.use_index);
  EXPECT_EQ(decision.eq_prefix_len, 1u);
  EXPECT_TRUE(decision.has_range);
}

TEST_F(PlannerTest, WeakPredicatePrefersSeqScan) {
  SelectStatement& s = Select("SELECT a FROM big WHERE c = 2");
  auto conds = planner_->ExtractConditions(s.where.get(), s.from, {false})[0];
  // c has 5 distinct values: 20% of a 50k-row table; random heap fetches
  // would dominate.
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"c"}), 50000)});
  EXPECT_FALSE(decision.use_index);
}

TEST_F(PlannerTest, PlanSelectOrdersSmallTableFirst) {
  SelectStatement& s = Select(
      "SELECT big.a FROM big, small WHERE big.b = small.k AND small.v = 3");
  auto plan = planner_->PlanSelect(s, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tables.size(), 2u);
  EXPECT_EQ(plan->tables[0].ref.table, "small");
  EXPECT_EQ(plan->tables[1].ref.table, "big");
}

TEST_F(PlannerTest, PlanSelectFailsOnUnknownTable) {
  SelectStatement& s = Select("SELECT a FROM nope");
  EXPECT_FALSE(planner_->PlanSelect(s, {}).ok());
}

TEST_F(PlannerTest, WriteLookupPlansIndexAccess) {
  auto parsed = ParseSql("UPDATE big SET c = 1 WHERE a = 5");
  ASSERT_TRUE(parsed.ok());
  auto tp = planner_->PlanWriteLookup(
      "big", parsed->update->where.get(),
      {View(IndexDef("big", {"a"}), 50000)});
  ASSERT_TRUE(tp.ok());
  EXPECT_TRUE(tp->access.use_index);
}

TEST_F(PlannerTest, ResolveColumnTableHandlesQualifiersAndProbing) {
  std::vector<TableRef> from{TableRef("big"), TableRef("small", "s")};
  EXPECT_EQ(ResolveColumnTable(ColumnRef("big", "a"), from, catalog_), 0);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("s", "k"), from, catalog_), 1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("k"), from, catalog_), 1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("a"), from, catalog_), 0);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("zzz"), from, catalog_), -1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("nope", "a"), from, catalog_), -1);
}

}  // namespace
}  // namespace autoindex
