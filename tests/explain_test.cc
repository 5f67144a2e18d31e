// EXPLAIN output: plan rendering reflects the planner's actual choices,
// and every consumer shows the one price the planner puts on a plan.

#include <gtest/gtest.h>

#include <vector>

#include "engine/explain.h"
#include "engine/planner.h"
#include "engine/what_if.h"
#include "query_gen.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// t(a, b): 30,000 rows (i, i % 100); d(k, v): 100 rows (i, i).
void Populate(Database* db) {
  db->CreateTable("t", Schema({{"a", ValueType::kInt},
                               {"b", ValueType::kInt}}));
  db->CreateTable("d", Schema({{"k", ValueType::kInt},
                               {"v", ValueType::kInt}}));
  std::vector<Row> rows;
  for (int i = 0; i < 30000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
  }
  CheckOk(db->BulkInsert("t", std::move(rows)));
  rows.clear();
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
  }
  CheckOk(db->BulkInsert("d", std::move(rows)));
  db->Analyze();
}

// The nodes of an executed plan named `op`, pre-order.
void CollectNodes(const PlanNodeSnapshot& node, const std::string& op,
                  std::vector<const PlanNodeSnapshot*>* out) {
  if (node.op == op) out->push_back(&node);
  for (const PlanNodeSnapshot& child : node.children) {
    CollectNodes(child, op, out);
  }
}

std::vector<const PlanNodeSnapshot*> NodesNamed(const PlanNodeSnapshot& root,
                                                const std::string& op) {
  std::vector<const PlanNodeSnapshot*> out;
  CollectNodes(root, op, &out);
  return out;
}

// Runs `sql` and checks its rows against the reference evaluator.
ExecResult RunAndCompare(Database* db, const std::string& sql) {
  auto stmt = ParseSql(sql);
  CheckOk(stmt.status());
  auto r = db->Execute(*stmt);
  CheckOk(r.status());
  EXPECT_TRUE(r->plan.has_value()) << sql;
  EXPECT_EQ(querygen::Canonical(r->rows),
            querygen::Canonical(querygen::ReferenceSelect(*db, *stmt->select)))
      << sql;
  return std::move(*r);
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override { Populate(&db_); }

  Database db_;
};

TEST_F(ExplainTest, SeqScanWithoutIndexes) {
  auto plan = ExplainSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("seq scan on t"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("estimated total cost"), std::string::npos);
}

TEST_F(ExplainTest, IndexScanWhenAvailable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto plan = ExplainSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index scan on t via idx_t_a"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("a = ?"), std::string::npos);
}

TEST_F(ExplainTest, HashJoinRendered) {
  auto plan = ExplainSql(
      db_, "SELECT t.b FROM d, t WHERE t.a = d.k AND d.v = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash join to t"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, SortAndAggregateMarkers) {
  auto plan = ExplainSql(
      db_, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash aggregate"), std::string::npos);
  EXPECT_NE(plan->find("sort"), std::string::npos);
}

TEST_F(ExplainTest, WhatIfConfigOverridesBuilt) {
  // No built index — but the explain under a hypothetical config shows
  // the index plan (the hypopg-style workflow).
  auto stmt = ParseSql("SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(stmt.ok());
  const std::string plan = ExplainStatement(
      db_, *stmt, IndexConfig({IndexDef("t", {"a"})}));
  EXPECT_NE(plan.find("index scan"), std::string::npos) << plan;
}

TEST_F(ExplainTest, WriteStatements) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto upd = ExplainSql(db_, "UPDATE t SET b = 1 WHERE a = 5");
  ASSERT_TRUE(upd.ok());
  EXPECT_NE(upd->find("update rows"), std::string::npos);
  EXPECT_NE(upd->find("index scan"), std::string::npos);
  auto ins = ExplainSql(db_, "INSERT INTO t VALUES (1, 2)");
  ASSERT_TRUE(ins.ok());
  EXPECT_NE(ins->find("insert into t"), std::string::npos);
}

// --- EXPLAIN ANALYZE: executes for real, renders est vs actual ----------

TEST_F(ExplainTest, AnalyzeRendersOperatorsWithActualCounters) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto out = ExplainAnalyzeSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("IndexScan"), std::string::npos) << *out;
  EXPECT_NE(out->find("idx_t_a"), std::string::npos) << *out;
  EXPECT_NE(out->find("Project"), std::string::npos) << *out;
  EXPECT_NE(out->find("(est."), std::string::npos) << *out;
  EXPECT_NE(out->find("(actual: rows=1"), std::string::npos) << *out;
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
  // The feedback section names the access path with est vs actual.
  EXPECT_NE(out->find("feedback:"), std::string::npos) << *out;
  EXPECT_NE(out->find("t via idx_t_a"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeSeqScanFeedbackAndJoinOperators) {
  auto out = ExplainAnalyzeSql(
      db_, "SELECT t.b FROM d, t WHERE t.a = d.k AND d.v = 3");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("HashJoin"), std::string::npos) << *out;
  EXPECT_NE(out->find("SeqScan"), std::string::npos) << *out;
  EXPECT_NE(out->find("via seq scan"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeExecutesWriteStatements) {
  // EXPLAIN ANALYZE on an UPDATE really runs it — the mutation sticks and
  // the rendered pipeline is the write's row-location plan.
  auto out = ExplainAnalyzeSql(db_, "UPDATE t SET b = 777 WHERE a = 9");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
  auto check = db_.Execute("SELECT b FROM t WHERE a = 9");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsInt(), 777);
}

TEST_F(ExplainTest, AnalyzeInsertFallsBackToLogicalShape) {
  auto out = ExplainAnalyzeSql(db_, "INSERT INTO t VALUES (90001, 2)");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("insert into t"), std::string::npos) << *out;
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeErrorsPropagate) {
  EXPECT_FALSE(ExplainAnalyzeSql(db_, "SELEC nope").ok());
  EXPECT_FALSE(ExplainAnalyzeSql(db_, "SELECT a FROM missing").ok());
}

// Every join node of EXPLAIN ANALYZE shows the row estimate the planner
// stored for its level. d.v < 20 keeps ~20 of d's rows and each join
// matches one row per outer row, so each level estimates ~20 rows, where
// outer rows times the inner table's size would give 600,000.
TEST_F(ExplainTest, AnalyzeJoinNodesShowPlannerLevelRows) {
  db_.CreateTable("e", Schema({{"k", ValueType::kInt},
                               {"w", ValueType::kInt}}));
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 10))});
  }
  CheckOk(db_.BulkInsert("e", std::move(rows)));
  db_.Analyze();
  const std::string sql =
      "SELECT t.b, e.w FROM d, t, e "
      "WHERE t.a = d.k AND e.k = t.a AND d.v < 20";
  auto stmt = ParseSql(sql);
  ASSERT_TRUE(stmt.ok());
  Planner planner(&db_.catalog(), &db_.stats_manager(), db_.params());
  auto plan = planner.PlanSelect(*stmt->select, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tables.size(), 3u);

  auto out = ExplainAnalyzeSql(db_, sql);
  ASSERT_TRUE(out.ok());
  const std::vector<std::string> lines = Split(*out, '\n');
  for (size_t level = 1; level < plan->tables.size(); ++level) {
    const TablePlan& tp = plan->tables[level];
    const std::string node = "HashJoin to " + tp.ref.alias;
    size_t found = 0;
    for (const std::string& line : lines) {
      if (line.find(node) == std::string::npos) continue;
      ++found;
      EXPECT_NE(line.find(StrFormat("(est. %.1f rows", tp.est_rows_out)),
                std::string::npos)
          << line;
    }
    EXPECT_EQ(found, 1u) << node << " in\n" << *out;
    EXPECT_LT(tp.est_rows_out, 100.0);
  }
}

// EXPLAIN's estimated total under a what-if config is the cost the
// what-if model gives the tuner for the same statement.
TEST_F(ExplainTest, EstimatedTotalIsTheWhatIfCost) {
  const IndexConfig config({IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  const WhatIfCostModel model(&db_.catalog(), &db_.stats_manager(),
                              db_.params());
  for (const char* sql :
       {"SELECT b FROM t WHERE a = 5",
        "SELECT a FROM t WHERE b = 3 ORDER BY a",
        "SELECT t.b, COUNT(*) FROM d, t WHERE t.a = d.k AND d.v < 50 "
        "GROUP BY t.b"}) {
    SCOPED_TRACE(sql);
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    const double cost = model.EstimateStatement(*stmt, config).CData();
    const std::string text = ExplainStatement(db_, *stmt, config);
    EXPECT_NE(text.find(StrFormat("estimated total cost: %.1f ", cost)),
              std::string::npos)
        << text;
  }
}

// Scans and joins apply the WHERE atoms their conditions hold; the Filter
// holds only the rest, and the rows stay the reference evaluator's.
TEST_F(ExplainTest, FilterHoldsOnlyResidualAtoms) {
  // s(a, b): 300 rows (i, i % 100). The joins use it in place of t so the
  // reference evaluator's cartesian product stays small.
  db_.CreateTable("s", Schema({{"a", ValueType::kInt},
                               {"b", ValueType::kInt}}));
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
  }
  CheckOk(db_.BulkInsert("s", std::move(rows)));
  db_.Analyze();

  for (const char* sql :
       {"SELECT s.b FROM d, s WHERE s.a = d.k AND d.v = 3",
        "SELECT a FROM t WHERE a BETWEEN 5 AND 900 AND b IN (5, 6) "
        "AND b <> 7"}) {
    SCOPED_TRACE(sql);
    const ExecResult r = RunAndCompare(&db_, sql);
    EXPECT_TRUE(NodesNamed(*r.plan, "Filter").empty());
  }

  // (SQL, index of the residual atom among the WHERE's conjuncts; -1 = the
  // whole WHERE, which is not a plain conjunction).
  const struct {
    const char* sql;
    int residual;
  } cases[] = {
      {"SELECT a, b FROM t WHERE a = b AND a < 500", 0},
      {"SELECT a FROM t WHERE a < 300 AND NOT (b = 1 OR b = 2)", 1},
      {"SELECT d.v, s.b FROM d, s WHERE s.a = d.k AND d.v < 9 "
       "AND s.a = s.b", 2},
      // An OR group beside other atoms makes the WHERE no plain
      // conjunction: the whole WHERE stays residual.
      {"SELECT s.b FROM d, s WHERE s.a = d.k AND (d.v = 3 OR d.v = 5)", -1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    auto stmt = ParseSql(c.sql);
    ASSERT_TRUE(stmt.ok());
    const Expr& where = *stmt->select->where;
    const std::string residual =
        c.residual < 0 ? where.ToString()
                       : where.children[static_cast<size_t>(c.residual)]
                             ->ToString();
    const ExecResult r = RunAndCompare(&db_, c.sql);
    const std::vector<const PlanNodeSnapshot*> filters =
        NodesNamed(*r.plan, "Filter");
    ASSERT_EQ(filters.size(), 1u) << RenderPlanSnapshot(*r.plan);
    EXPECT_EQ(filters[0]->detail, residual);
    EXPECT_GT(r.rows.size(), 0u);
  }
}

// A range-only UPDATE over an indexed column locates its rows through the
// index, and changes the same rows as a sequential scan does.
TEST_F(ExplainTest, RangeOnlyUpdateRunsIndexScan) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  Database plain;
  Populate(&plain);
  const std::string sql = "UPDATE t SET b = 777 WHERE a >= 100 AND a < 120";
  auto indexed = db_.Execute(sql);
  auto scanned = plain.Execute(sql);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_TRUE(indexed->plan.has_value());
  ASSERT_TRUE(scanned->plan.has_value());
  EXPECT_EQ(indexed->plan->op, "IndexScan") << RenderPlanSnapshot(*indexed->plan);
  EXPECT_EQ(scanned->plan->op, "SeqScan") << RenderPlanSnapshot(*scanned->plan);
  EXPECT_TRUE(indexed->stats.used_index);
  EXPECT_EQ(indexed->stats.rows_returned, 20u);
  EXPECT_EQ(scanned->stats.rows_returned, 20u);
  const std::string check = "SELECT a, b FROM t WHERE b = 777";
  auto a = db_.Execute(check);
  auto b = plain.Execute(check);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows.size(), 20u);
  EXPECT_EQ(querygen::Canonical(a->rows), querygen::Canonical(b->rows));
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(ExplainSql(db_, "SELEC nope").ok());
  auto missing = ExplainSql(db_, "SELECT a FROM missing");
  ASSERT_TRUE(missing.ok());  // parses fine; planning fails in the text
  EXPECT_NE(missing->find("error"), std::string::npos);
}

}  // namespace
}  // namespace autoindex
