// Differential property test for the physical-operator pipeline: random
// SELECTs run through the Volcano pipeline must produce the exact row
// multiset of the naive reference evaluator (query_gen.h), AND the
// per-operator counters in the returned plan snapshot must sum exactly to
// the statement-level ExecStats — the invariant the PhysicalPlanValidator
// enforces. 6 seeds x 40 queries = 240 deterministic queries, each checked
// with a mixed index set built so IndexScan / IndexNestedLoopJoin paths are
// exercised alongside SeqScan / HashJoin.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
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
  for (int i = 0; i < 40; ++i) {
    const std::string sql = gen.RandQuery();
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const std::string expected =
        Canonical(ReferenceSelect(db, *stmt->select));

    const std::map<std::string, uint64_t> counters_before =
        OperatorCounters();
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_EQ(Canonical(r->rows), expected) << sql;

    // Every SELECT runs a pipeline and must return its snapshot.
    ASSERT_TRUE(r->plan.has_value()) << sql;
    ExpectCountersSumToStats(*r->plan, r->stats, sql);
    if constexpr (util::kMetricsEnabled) {
      ExpectOperatorCounterDeltas(counters_before, *r->plan, sql);
    }

    // The registered PhysicalPlanValidator re-checks the retained snapshot
    // (plus every storage structure) after each statement.
    const CheckReport report = CheckAll(db);
    EXPECT_TRUE(report.ok()) << sql << "\n" << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace autoindex
