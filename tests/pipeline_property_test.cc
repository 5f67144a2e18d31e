// Differential property test for the physical-operator pipeline: random
// SELECTs run through the Volcano pipeline must produce the exact row
// multiset of the naive reference evaluator (query_gen.h), AND the
// per-operator counters in the returned plan snapshot must sum exactly to
// the statement-level ExecStats — the invariant the PhysicalPlanValidator
// enforces. Two passes of 6 seeds x 40 deterministic queries each:
//  - the canonical small tables with a seed-dependent index subset, where
//    SeqScan / HashJoin plans dominate;
//  - a larger t1 and a tiny t2 over a wider value domain, planned with
//    index probes priced like sequential pages, where selective predicates
//    run through IndexScan and joins driven by t2 through
//    IndexNestedLoopJoin. The pass asserts that both index operators ran.
// A focused test pins how column references resolve over a join.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
#include "engine/operators/operator.h"
#include "sql/expr.h"
#include "sql/parser.h"
#include "query_gen.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

using querygen::BuildPropertyTestTables;
using querygen::Canonical;
using querygen::GenContext;
using querygen::ReferenceSelect;

// Re-derives the statement ExecStats from the snapshot's per-operator
// counters and asserts it matches what the executor reported. rows_returned
// must equal the root operator's rows_out.
void ExpectCountersSumToStats(const PlanNodeSnapshot& plan,
                              const ExecStats& stats,
                              const std::string& sql) {
  ExecStats summed;
  AccumulateOperatorCounters(plan, &summed);
  EXPECT_EQ(summed.heap_pages_read, stats.heap_pages_read) << sql;
  EXPECT_EQ(summed.index_pages_read, stats.index_pages_read) << sql;
  EXPECT_EQ(summed.tuples_examined, stats.tuples_examined) << sql;
  EXPECT_EQ(summed.index_tuples_read, stats.index_tuples_read) << sql;
  EXPECT_EQ(summed.sort_rows, stats.sort_rows) << sql;
  ASSERT_GE(plan.actual.rows_out, 0) << sql;
  EXPECT_EQ(static_cast<size_t>(plan.actual.rows_out), stats.rows_returned)
      << sql;
}

// The executor.op.<kind>.* counters, by name.
std::map<std::string, uint64_t> OperatorCounters() {
  std::map<std::string, uint64_t> out;
  for (const auto& m : util::MetricsRegistry::Default().Snapshot(
           "executor.op.")) {
    out[m.name] = m.counter;
  }
  return out;
}

// What one statement should add to those counters: per operator kind,
// one invocation plus its rows_out and pages read.
void AddPlanCounters(const PlanNodeSnapshot& node,
                     std::map<std::string, uint64_t>* out) {
  const std::string base = StrCat("executor.op.", ToLower(node.op), ".");
  (*out)[base + "invocations"] += 1;
  (*out)[base + "rows_out"] += static_cast<uint64_t>(node.actual.rows_out);
  (*out)[base + "pages_read"] += static_cast<uint64_t>(
      node.actual.heap_pages_read + node.actual.index_pages_read);
  for (const PlanNodeSnapshot& child : node.children) {
    AddPlanCounters(child, out);
  }
}

// The counters moved by exactly the per-kind sums over the statement's
// plan.
void ExpectOperatorCounterDeltas(const std::map<std::string, uint64_t>& before,
                                 const PlanNodeSnapshot& plan,
                                 const std::string& sql) {
  std::map<std::string, uint64_t> expected;
  AddPlanCounters(plan, &expected);
  for (const auto& [name, value] : OperatorCounters()) {
    const auto it = before.find(name);
    const uint64_t delta = value - (it == before.end() ? 0 : it->second);
    const auto want = expected.find(name);
    EXPECT_EQ(delta, want == expected.end() ? 0 : want->second)
        << name << " for " << sql;
    expected.erase(name);
  }
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(value, 0u) << name << " not exported, for " << sql;
  }
}

void CollectOperatorNames(const PlanNodeSnapshot& node,
                          std::set<std::string>* out) {
  out->insert(node.op);
  for (const PlanNodeSnapshot& child : node.children) {
    CollectOperatorNames(child, out);
  }
}

// Runs `n` generated queries against `db`, checking each against the
// reference evaluator, the counter invariants and CheckAll. Adds one to
// (*ran)[op] for every query whose plan contains operator `op`.
void RunDifferentialQueries(Database* db, GenContext* gen, int n,
                            std::map<std::string, int>* ran) {
  for (int i = 0; i < n; ++i) {
    const std::string sql = gen->RandQuery();
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const std::string expected =
        Canonical(ReferenceSelect(*db, *stmt->select));

    const std::map<std::string, uint64_t> counters_before =
        OperatorCounters();
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_EQ(Canonical(r->rows), expected) << sql;

    // Every SELECT runs a pipeline and must return its snapshot.
    ASSERT_TRUE(r->plan.has_value()) << sql;
    ExpectCountersSumToStats(*r->plan, r->stats, sql);
    if constexpr (util::kMetricsEnabled) {
      ExpectOperatorCounterDeltas(counters_before, *r->plan, sql);
    }
    std::set<std::string> ops;
    CollectOperatorNames(*r->plan, &ops);
    for (const std::string& op : ops) ++(*ran)[op];

    // The registered PhysicalPlanValidator re-checks the retained snapshot
    // (plus every storage structure) after each statement.
    const CheckReport report = CheckAll(*db);
    EXPECT_TRUE(report.ok()) << sql << "\n" << report.ToString();
  }
}

uint64_t InvocationsOf(const std::string& op) {
  const auto counters = OperatorCounters();
  const auto it = counters.find("executor.op." + op + ".invocations");
  return it == counters.end() ? 0 : it->second;
}

class PipelinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, PipelineMatchesReferenceAndCountersAreConsistent) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  BuildPropertyTestTables(&db, seed);

  // Build a seed-dependent index subset so different seeds exercise
  // different access paths (always at least the join-probe index on t2.x).
  Random idx_rng(seed * 31 + 7);
  ASSERT_TRUE(db.CreateIndex(IndexDef("t2", {"x"})).ok());
  const std::vector<IndexDef> optional_indexes = {
      IndexDef("t1", {"a"}), IndexDef("t1", {"b"}),
      IndexDef("t1", {"a", "b"}), IndexDef("t1", {"b", "c"}),
      IndexDef("t1", {"s"})};
  for (const IndexDef& def : optional_indexes) {
    if (idx_rng.Bernoulli(0.5)) {
      ASSERT_TRUE(db.CreateIndex(def).ok());
    }
  }

  GenContext gen(seed + 1000);  // distinct stream from query_property_test
  std::map<std::string, int> ran;
  RunDifferentialQueries(&db, &gen, 40, &ran);
}

// Index probes priced like sequential pages (a fully cached database):
// on the 800-row t1 a selective equality or narrow range is cheaper
// through an index than through a scan, and a join driven by the 2-row t2
// probes t1's (b, c) index per outer row instead of hashing all of t1.
constexpr CostParams kCachedCostParams{/*seq_page_cost=*/1.0,
                                       /*random_page_cost=*/1.0};
constexpr querygen::TableShape kIndexPassShape{/*t1_rows=*/800,
                                               /*t2_rows=*/2,
                                               /*domain=*/400};

TEST_P(PipelinePropertyTest, IndexPassMatchesReferenceAndRunsIndexOperators) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db(kCachedCostParams);
  BuildPropertyTestTables(&db, seed, kIndexPassShape);
  ASSERT_TRUE(db.CreateIndex(IndexDef("t2", {"x"})).ok());
  for (const IndexDef& def :
       {IndexDef("t1", {"a"}), IndexDef("t1", {"b", "c"}),
        IndexDef("t1", {"c", "a"}), IndexDef("t1", {"s"})}) {
    ASSERT_TRUE(db.CreateIndex(def).ok());
  }

  const uint64_t index_scans_before = InvocationsOf("indexscan");
  const uint64_t index_joins_before = InvocationsOf("indexnestedloopjoin");
  GenContext gen(seed + 2000, kIndexPassShape.domain);
  gen.limit_needs_total_order = true;
  std::map<std::string, int> ran;
  RunDifferentialQueries(&db, &gen, 40, &ran);

  // A real share of the queries ran each index operator, so the pass
  // cannot silently fall back to scans and hash joins.
  EXPECT_GE(ran["IndexScan"], 8) << "seed " << seed;
  EXPECT_GE(ran["IndexNestedLoopJoin"], 3) << "seed " << seed;
  if constexpr (util::kMetricsEnabled) {
    EXPECT_GT(InvocationsOf("indexscan"), index_scans_before);
    EXPECT_GT(InvocationsOf("indexnestedloopjoin"), index_joins_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range(1, 7));

// --- Column resolution over a join ---------------------------------------

// Two tables that share the column name `k`, joined as `ta p, tb q`.
class JoinColumnResolution : public ::testing::Test {
 protected:
  JoinColumnResolution() {
    CheckOk(catalog_.CreateTable("ta", Schema({{"id", ValueType::kInt},
                                               {"k", ValueType::kInt}}))
                .status());
    CheckOk(catalog_.CreateTable("tb", Schema({{"k", ValueType::kInt},
                                               {"id", ValueType::kInt},
                                               {"w", ValueType::kInt}}))
                .status());
    plan_.from = {TableRef("ta", "p"), TableRef("tb", "q")};
    plan_.tables.resize(2);
    plan_.tables[0].ref = plan_.from[0];
    plan_.tables[0].from_index = 0;
    plan_.tables[1].ref = plan_.from[1];
    plan_.tables[1].from_index = 1;
    tuple_.slots = {{Value(int64_t(1)), Value(int64_t(10))},
                    {Value(int64_t(20)), Value(int64_t(1)),
                     Value(int64_t(30))}};
    tuple_.rids = {0, 0};
  }

  Catalog catalog_;
  SelectPlan plan_;
  ExecTuple tuple_;
};

TEST_F(JoinColumnResolution, FirstFromEntryOwnsAndQualifiers) {
  PrefixResolver resolver(catalog_, plan_, 1);
  resolver.Bind(&tuple_, nullptr);
  const ColumnRef unqualified("k");
  const ColumnRef by_alias("p", "k");
  const ColumnRef by_table("ta", "k");
  const ColumnRef other_alias("q", "k");
  const ColumnRef only_in_tb("w");
  // Twice each: the second pass reads the memoised bindings.
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_NE(resolver.Resolve(unqualified), nullptr);
    EXPECT_EQ(resolver.Resolve(unqualified)->AsInt(), 10)
        << "first FROM entry";
    ASSERT_NE(resolver.Resolve(by_alias), nullptr);
    EXPECT_EQ(resolver.Resolve(by_alias)->AsInt(), 10);
    ASSERT_NE(resolver.Resolve(by_table), nullptr);
    EXPECT_EQ(resolver.Resolve(by_table)->AsInt(), 10);
    ASSERT_NE(resolver.Resolve(other_alias), nullptr);
    EXPECT_EQ(resolver.Resolve(other_alias)->AsInt(), 20);
    ASSERT_NE(resolver.Resolve(only_in_tb), nullptr);
    EXPECT_EQ(resolver.Resolve(only_in_tb)->AsInt(), 30);
  }

  // Over the prefix [ta] alone the unqualified name still reads ta.
  PrefixResolver outer_only(catalog_, plan_, 0);
  outer_only.Bind(&tuple_, nullptr);
  ASSERT_NE(outer_only.Resolve(unqualified), nullptr);
  EXPECT_EQ(outer_only.Resolve(unqualified)->AsInt(), 10);
  EXPECT_EQ(outer_only.Resolve(only_in_tb), nullptr);

  // A name bound to the table being placed reads the candidate row, and
  // is unbound while no candidate is given (index key binding). The
  // unqualified name is ta's, so it reads the outer row either way.
  ExecTuple outer;
  outer.slots = {tuple_.slots[0]};
  outer.rids = {0};
  PrefixResolver placing(catalog_, plan_, 1);
  placing.Bind(&outer, nullptr);
  ASSERT_NE(placing.Resolve(unqualified), nullptr);
  EXPECT_EQ(placing.Resolve(unqualified)->AsInt(), 10);
  EXPECT_EQ(placing.Resolve(other_alias), nullptr);
  placing.Bind(&outer, &tuple_.slots[1]);
  ASSERT_NE(placing.Resolve(unqualified), nullptr);
  EXPECT_EQ(placing.Resolve(unqualified)->AsInt(), 10);
  ASSERT_NE(placing.Resolve(other_alias), nullptr);
  EXPECT_EQ(placing.Resolve(other_alias)->AsInt(), 20);
}

TEST_F(JoinColumnResolution, OwnerDoesNotDependOnJoinOrder) {
  // Join order tb, ta over the same FROM list (ta p, tb q): the
  // unqualified `k` is still ta's, now in slot 1, and unbound over the
  // prefix [tb] where ta is not placed yet.
  std::swap(plan_.tables[0], plan_.tables[1]);
  ExecTuple swapped;
  swapped.slots = {tuple_.slots[1], tuple_.slots[0]};
  swapped.rids = {0, 0};
  const ColumnRef unqualified("k");
  const ColumnRef only_in_tb("w");
  PrefixResolver full(catalog_, plan_, 1);
  full.Bind(&swapped, nullptr);
  ASSERT_NE(full.Resolve(unqualified), nullptr);
  EXPECT_EQ(full.Resolve(unqualified)->AsInt(), 10);
  ASSERT_NE(full.Resolve(only_in_tb), nullptr);
  EXPECT_EQ(full.Resolve(only_in_tb)->AsInt(), 30);

  PrefixResolver tb_only(catalog_, plan_, 0);
  tb_only.Bind(&swapped, nullptr);
  EXPECT_EQ(tb_only.Resolve(unqualified), nullptr);
  ASSERT_NE(tb_only.Resolve(only_in_tb), nullptr);
  EXPECT_EQ(tb_only.Resolve(only_in_tb)->AsInt(), 30);
}

TEST_F(JoinColumnResolution, UnknownColumnIsUnbound) {
  PrefixResolver resolver(catalog_, plan_, 1);
  resolver.Bind(&tuple_, nullptr);
  const ColumnRef unknown("nosuch");
  const ColumnRef wrong_qualifier("r", "k");
  const ColumnRef wrong_table("p", "w");
  EXPECT_EQ(resolver.Resolve(unknown), nullptr);
  EXPECT_EQ(resolver.Resolve(wrong_qualifier), nullptr);
  EXPECT_EQ(resolver.Resolve(wrong_table), nullptr);
  const ExprPtr eq =
      Expr::MakeColCompare(ColumnRef("nosuch"), CompareOp::kEq, Value());
  const ExprPtr ne = Expr::MakeColCompare(ColumnRef("nosuch"), CompareOp::kNe,
                                          Value(int64_t(1)));
  EXPECT_FALSE(EvaluatePredicate(*eq, resolver));
  EXPECT_FALSE(EvaluatePredicate(*ne, resolver));
  EXPECT_FALSE(EvaluatePredicate(*Expr::MakeIsNull(
                                     Expr::MakeColumn(ColumnRef("nosuch"))),
                                 resolver));
}

// The same rules end to end: an unqualified `k` in the select list reads
// ta, the first FROM entry that has it; an unknown column projects NULL
// and filters every row out.
TEST(JoinColumnResolutionEndToEnd, ProjectionAndPredicates) {
  Database db;
  db.CreateTable("ta", Schema({{"id", ValueType::kInt},
                               {"k", ValueType::kInt}}));
  db.CreateTable("tb", Schema({{"k", ValueType::kInt},
                               {"id", ValueType::kInt}}));
  std::vector<Row> ta_rows, tb_rows;
  for (int64_t i = 0; i < 3; ++i) {
    ta_rows.push_back({Value(i), Value(100 + i)});
  }
  for (int64_t i = 0; i < 50; ++i) {
    tb_rows.push_back({Value(200 + i), Value(i)});
  }
  CheckOk(db.BulkInsert("ta", std::move(ta_rows)));
  CheckOk(db.BulkInsert("tb", std::move(tb_rows)));
  db.Analyze();

  auto r = db.Execute(
      "SELECT p.k, ta.k, q.k, k, nosuch FROM ta p, tb q "
      "WHERE p.id = q.id AND q.k > 200");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Canonical(r->rows),
            "101|101|201|101|NULL|\n102|102|202|102|NULL|");

  auto unknown = db.Execute(
      "SELECT p.k FROM ta p, tb q WHERE p.id = q.id AND nosuch = 1");
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_TRUE(unknown->rows.empty());
}

// A name shared by two joined tables reads the same table whichever one
// the planner places first. `ta` is the smaller table in one run and the
// larger in the other, so the join order flips; the unqualified `k` is
// ta's in both (the first FROM entry that has it), in the select list and
// in the WHERE clause alike.
TEST(JoinColumnResolutionEndToEnd, SharedNameIndependentOfJoinOrder) {
  const std::string sql = "SELECT p.id, k FROM ta p, tb q WHERE p.id = q.id";
  const std::string filtered_sql = sql + " AND k > 100";
  std::vector<std::string> results;
  std::vector<std::string> first_scans;
  for (const int64_t ta_size : {3, 50}) {
    SCOPED_TRACE(StrCat("ta rows: ", ta_size));
    Database db;
    db.CreateTable("ta", Schema({{"id", ValueType::kInt},
                                 {"k", ValueType::kInt}}));
    db.CreateTable("tb", Schema({{"k", ValueType::kInt},
                                 {"id", ValueType::kInt}}));
    std::vector<Row> ta_rows, tb_rows;
    for (int64_t i = 0; i < ta_size; ++i) {
      ta_rows.push_back({Value(i), Value(100 + i)});
    }
    for (int64_t i = 0; i < 53 - ta_size; ++i) {
      tb_rows.push_back({Value(200 + i), Value(i)});
    }
    CheckOk(db.BulkInsert("ta", std::move(ta_rows)));
    CheckOk(db.BulkInsert("tb", std::move(tb_rows)));
    db.Analyze();

    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->plan.has_value());
    const PlanNodeSnapshot* leaf = &*r->plan;
    while (!leaf->children.empty()) leaf = &leaf->children[0];
    first_scans.push_back(leaf->detail);
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(Canonical(r->rows),
              Canonical(ReferenceSelect(db, *parsed->select)));
    results.push_back(Canonical(r->rows));

    // The filter keeps exactly the projected rows whose k passes it.
    std::vector<Row> expected;
    for (const Row& row : r->rows) {
      if (row[1].AsInt() > 100) expected.push_back(row);
    }
    auto filtered = db.Execute(filtered_sql);
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    EXPECT_EQ(Canonical(filtered->rows), Canonical(expected));
    auto parsed_filtered = ParseSql(filtered_sql);
    ASSERT_TRUE(parsed_filtered.ok());
    EXPECT_EQ(Canonical(filtered->rows),
              Canonical(ReferenceSelect(db, *parsed_filtered->select)));
  }
  ASSERT_EQ(first_scans.size(), 2u);
  EXPECT_NE(first_scans[0], first_scans[1]) << "join order did not flip";
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], "0|100|\n1|101|\n2|102|");
}

}  // namespace
}  // namespace autoindex
