// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: B+Tree operations, SQL parsing, fingerprinting, DNF
// rewriting, what-if estimation, MCTS iteration throughput, and
// statements end to end (a point SELECT, a filtered scan, a hash join).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/benefit_estimator.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "engine/database.h"
#include "engine/session.h"
#include "index/btree.h"
#include "sql/dnf.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "util/random.h"

namespace autoindex {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    BTree tree(256, 256);
    Random rng(7);
    for (size_t i = 0; i < n; ++i) {
      tree.Insert({Value(static_cast<int64_t>(rng.Next() % 1000000))}, i);
    }
    benchmark::DoNotOptimize(tree.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreePointLookup(benchmark::State& state) {
  BTree tree(256, 256);
  Random rng(7);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    tree.Insert({Value(static_cast<int64_t>(i))}, i);
  }
  size_t key = 0;
  for (auto _ : state) {
    key = (key * 2654435761u + 1) % n;
    benchmark::DoNotOptimize(
        tree.PrefixLookup({Value(static_cast<int64_t>(key))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointLookup);

void BM_BTreeRangeScan(benchmark::State& state) {
  BTree tree(256, 256);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    tree.Insert({Value(static_cast<int64_t>(i))}, i);
  }
  const int64_t width = state.range(0);
  int64_t lo_v = 0;
  for (auto _ : state) {
    lo_v = (lo_v + 12345) % (n - width);
    Row lo{Value(lo_v)}, hi{Value(lo_v + width)};
    size_t count = 0;
    tree.Scan(&lo, true, &hi, true, [&](const Row&, RowId) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_BTreeRangeScan)->Arg(100)->Arg(10000);

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT a, b, COUNT(*) FROM t1, t2 WHERE t1.x = t2.y AND a = 5 AND "
      "(b > 3 OR c IN (1, 2, 3)) GROUP BY a, b ORDER BY a DESC LIMIT 10";
  for (auto _ : state) {
    auto stmt = ParseSql(sql);
    benchmark::DoNotOptimize(stmt.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseSelect);

void BM_Fingerprint(benchmark::State& state) {
  const std::string sql =
      "SELECT c_id, c_balance FROM customer WHERE c_w_id = 3 AND c_d_id = "
      "7 AND c_last = 'BARBARESE' ORDER BY c_first";
  for (auto _ : state) {
    benchmark::DoNotOptimize(FingerprintSql(sql));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fingerprint);

void BM_TemplateObserve(benchmark::State& state) {
  TemplateStore store(5000);
  Random rng(3);
  for (auto _ : state) {
    const int c = static_cast<int>(rng.Uniform(1000000));
    benchmark::DoNotOptimize(store.Observe(
        "SELECT a FROM t WHERE b = " + std::to_string(c)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemplateObserve);

void BM_DnfRewrite(benchmark::State& state) {
  auto stmt = ParseSql(
      "SELECT a FROM t WHERE (a = 1 OR b = 2) AND (c = 3 OR d = 4) AND "
      "(e = 5 OR f = 6)");
  const Expr& where = *stmt->select->where;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToDnf(where));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnfRewrite);

// Shared fixture state for estimator/MCTS benches.
struct WhatIfFixture {
  WhatIfFixture() {
    db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kInt}}));
    std::vector<Row> rows;
    for (int i = 0; i < 50000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
    }
    db.BulkInsert("t", std::move(rows)).ok();
    db.Analyze();
    auto parsed = ParseSql("SELECT b FROM t WHERE a = 123");
    stmt = std::make_unique<Statement>(std::move(*parsed));
  }
  Database db;
  std::unique_ptr<Statement> stmt;
};

void BM_WhatIfEstimate(benchmark::State& state) {
  static WhatIfFixture* fixture = new WhatIfFixture();
  IndexConfig config({IndexDef("t", {"a"})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture->db.WhatIfCost(*fixture->stmt, config).Total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfEstimate);

void BM_MctsIteration(benchmark::State& state) {
  static WhatIfFixture* fixture = new WhatIfFixture();
  IndexBenefitEstimator estimator(&fixture->db);
  TemplateStore store(100);
  QueryTemplate* t = store.Observe("SELECT b FROM t WHERE a = 123");
  t->frequency = 50.0;
  store.Observe("SELECT a FROM t WHERE b = 7")->frequency = 50.0;
  const WorkloadModel workload =
      WorkloadModel::FromTemplates(store.TemplatesByFrequency());
  const std::vector<IndexDef> candidates = {
      IndexDef("t", {"a"}), IndexDef("t", {"b"}), IndexDef("t", {"a", "b"})};
  const size_t iterations = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    MctsConfig config;
    config.iterations = iterations;
    config.patience = 0;
    MctsIndexSelector selector(&fixture->db, &estimator, config);
    benchmark::DoNotOptimize(
        selector.Run(IndexConfig(), candidates, workload).best_benefit);
  }
  state.SetItemsProcessed(state.iterations() * iterations);
}
BENCHMARK(BM_MctsIteration)->Arg(50)->Arg(200);

// The per-statement instrumentation probe: a pre-parsed indexed point
// SELECT through Session::Execute (latch, plan, one IndexScan, and every
// span and counter a short statement records). Against the same
// benchmark in an AUTOINDEX_METRICS=OFF build it gives the metrics and
// tracing cost per statement; scripts/check.sh prints that ratio.
void BM_ExecutePointSelect(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    d->CreateTable("t", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kInt}}));
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
    }
    d->BulkInsert("t", std::move(rows)).ok();
    d->Analyze();
    d->CreateIndex(IndexDef("t", {"a"})).ok();
    return d;
  }();
  Session session(db);
  const StatusOr<Statement> stmt = ParseSql("SELECT b FROM t WHERE a = 4321");
  for (auto _ : state) {
    StatusOr<ExecResult> r = session.Execute(*stmt);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutePointSelect);

// The per-tuple path of a scan: a 10k-row SeqScan whose int and string
// predicates are evaluated for every row, with no index to skip rows.
void BM_ExecuteScanFilter(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    d->CreateTable("t", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kInt},
                                {"s", ValueType::kString}}));
    std::vector<Row> rows;
    for (int i = 0; i < 10000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100)),
                      Value("v" + std::to_string(i % 7))});
    }
    d->BulkInsert("t", std::move(rows)).ok();
    d->Analyze();
    return d;
  }();
  Session session(db);
  const StatusOr<Statement> stmt =
      ParseSql("SELECT a, s FROM t WHERE b < 50 AND s = 'v3'");
  for (auto _ : state) {
    StatusOr<ExecResult> r = session.Execute(*stmt);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ExecuteScanFilter);

// The per-tuple path of a join: a 10k-row fact table hash-joined to a
// 100-row dimension, probe keys resolved per outer tuple, then grouped
// and aggregated on a dimension column.
void BM_ExecuteHashJoin(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    d->CreateTable("fact", Schema({{"k", ValueType::kInt},
                                   {"v", ValueType::kInt}}));
    d->CreateTable("dim", Schema({{"k", ValueType::kInt},
                                  {"g", ValueType::kInt}}));
    std::vector<Row> facts;
    for (int i = 0; i < 10000; ++i) {
      facts.push_back({Value(int64_t(i % 100)), Value(int64_t(i))});
    }
    std::vector<Row> dims;
    for (int i = 0; i < 100; ++i) {
      dims.push_back({Value(int64_t(i)), Value(int64_t(i % 10))});
    }
    d->BulkInsert("fact", std::move(facts)).ok();
    d->BulkInsert("dim", std::move(dims)).ok();
    d->Analyze();
    return d;
  }();
  Session session(db);
  const StatusOr<Statement> stmt = ParseSql(
      "SELECT dim.g, COUNT(*), SUM(fact.v) FROM fact, dim "
      "WHERE fact.k = dim.k GROUP BY dim.g");
  for (auto _ : state) {
    StatusOr<ExecResult> r = session.Execute(*stmt);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ExecuteHashJoin);

}  // namespace
}  // namespace autoindex

BENCHMARK_MAIN();
