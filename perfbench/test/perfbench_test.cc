#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "samples.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<int64_t> sorted = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(Percentile(sorted, 0.5), 50);
  EXPECT_EQ(Percentile(sorted, 0.51), 60);
  EXPECT_EQ(Percentile(sorted, 0.99), 100);
  EXPECT_EQ(Percentile(sorted, 0.01), 10);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(PercentileTest, SummarizeCountsTheTailBeyondP99) {
  std::vector<int64_t> samples;
  for (int64_t v = 2000; v >= 1; --v) samples.push_back(v);  // unsorted
  const LatencySummary summary = Summarize(&samples);
  EXPECT_EQ(summary.samples, 2000u);
  EXPECT_EQ(summary.p50_ns, 1000);
  EXPECT_EQ(summary.p99_ns, 1980);
  EXPECT_EQ(summary.beyond_p99, 20u);
  EXPECT_TRUE(summary.p99_supported());
}

TEST(PercentileTest, TooFewSamplesGiveNoP99) {
  std::vector<int64_t> samples;
  for (int64_t v = 1; v <= 500; ++v) samples.push_back(v);
  const LatencySummary summary = Summarize(&samples);
  EXPECT_EQ(summary.beyond_p99, 5u);
  EXPECT_FALSE(summary.p99_supported());
  std::vector<int64_t> ties(5000, 42);  // nothing lies beyond a flat tail
  EXPECT_FALSE(Summarize(&ties).p99_supported());
  std::vector<int64_t> none;
  EXPECT_EQ(Summarize(&none).samples, 0u);
}

Span At(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > grandchild [15,35); root > b [50,70)
  const std::vector<Span> tree = {At("root", 0, 100, -1), At("a", 10, 40, 0),
                                  At("g", 15, 35, 1), At("b", 50, 70, 0)};
  const std::vector<int64_t> self = SelfTimes(tree);
  EXPECT_EQ(self, (std::vector<int64_t>{50, 10, 20, 20}));
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  // Children overlap each other and run past the parent's end.
  const std::vector<Span> tree = {At("root", 0, 100, -1), At("a", 10, 50, 0),
                                  At("b", 30, 60, 0), At("c", 90, 130, 0),
                                  At("d", 200, 210, 0)};
  const std::vector<int64_t> self = SelfTimes(tree);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
}

TEST(SpanRecorderTest, NestedScopesAggregateSelfTime) {
  SpanRecorder recorder(/*enabled=*/true);
  for (int i = 0; i < 3; ++i) {
    SpanScope root(&recorder, "client.statement", i + 1);
    { SpanScope child(&recorder, "sql.parse"); }
    { SpanScope child(&recorder, "engine.execute"); }
  }
  const auto totals = recorder.Totals();
  ASSERT_EQ(totals.count("client.statement"), 1u);
  EXPECT_EQ(totals.at("client.statement").count, 3u);
  EXPECT_EQ(totals.at("sql.parse").count, 3u);
  const LayerTotal root = totals.at("client.statement");
  EXPECT_LE(root.self_ns, root.total_ns);
  EXPECT_GE(root.total_ns, totals.at("sql.parse").total_ns +
                               totals.at("engine.execute").total_ns);
  const std::string json = recorder.ChromeJson();
  EXPECT_NE(json.find("\"name\":\"engine.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"stmt\":3"), std::string::npos);
}

TEST(SpanRecorderTest, KeepsWholeTreesAndSlowOnesPastTheLimit) {
  SpanRecorder recorder(/*enabled=*/true, /*keep_limit=*/4);
  const auto statement = [&](uint64_t id, bool slow) {
    SpanScope root(&recorder, "client.statement", id);
    SpanScope child(&recorder, "engine.execute");
    if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  statement(1, false);
  statement(2, false);  // reaches the limit of 4 spans
  statement(3, false);  // fast and past the limit: dropped
  statement(4, true);   // slow: kept, up to twice the limit
  statement(5, true);   // reaches twice the limit
  statement(6, true);   // would exceed it: dropped whole
  const std::string json = recorder.ChromeJson();
  EXPECT_NE(json.find("\"stmt\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"stmt\":3"), std::string::npos);
  EXPECT_NE(json.find("\"stmt\":5"), std::string::npos);
  EXPECT_EQ(json.find("\"stmt\":6"), std::string::npos);
  EXPECT_EQ(recorder.Totals().at("engine.execute").count, 6u);
}

TEST(SpanRecorderTest, DisabledRecorderRecordsNothing) {
  SpanRecorder recorder(/*enabled=*/false);
  { SpanScope root(&recorder, "client.statement", 1); }
  EXPECT_TRUE(recorder.Totals().empty());
}

std::string InfoValue(const RunResult& result, const std::string& key) {
  for (const auto& [k, v] : result.info) {
    if (k == key) return v;
  }
  return "";
}

// One seed must give one set of tuning decisions, however the client
// threads and the concurrent index builds interleave.
bool SameCpus(const cpu_set_t& a, const cpu_set_t& b) {
  return CPU_EQUAL(&a, &b) != 0;
}

// A thread started during a set-up (as the server's are) must not stay
// pinned to the set-up's CPU once the set-up ends.
TEST(SetupPinTest, PinsDuringSetUpAndUnpinsEveryThreadAfter) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  if (CPU_COUNT(&original) < 2) GTEST_SKIP() << "needs two CPUs";

  std::atomic<bool> done{false};
  std::atomic<pid_t> tid{0};
  std::thread started;
  {
    const SetupPin pin(1);
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    started = std::thread([&] {
      tid = gettid();
      while (!done) std::this_thread::yield();
    });
    while (tid == 0) std::this_thread::yield();
  }
  cpu_set_t main_after, thread_after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(main_after), &main_after), 0);
  ASSERT_EQ(sched_getaffinity(tid, sizeof(thread_after), &thread_after), 0);
  done = true;
  started.join();
  EXPECT_TRUE(SameCpus(main_after, original));
  EXPECT_TRUE(SameCpus(thread_after, original));
}

TEST(DeterminismTest, TpccDriftFingerprintRepeats) {
  RunOptions opt;
  opt.seed = 11;
  opt.setups = 1;
  TpccDriftSize size;
  size.txns_per_phase = 300;
  const RunResult first = RunTpccDrift(opt, size);
  const RunResult second = RunTpccDrift(opt, size);
  EXPECT_TRUE(first.failures.empty()) << first.failures.front();
  EXPECT_TRUE(second.failures.empty()) << second.failures.front();
  EXPECT_FALSE(InfoValue(first, "decisions").empty());
  EXPECT_EQ(InfoValue(first, "decisions"), InfoValue(second, "decisions"));
  EXPECT_EQ(InfoValue(first, "final_indexes"),
            InfoValue(second, "final_indexes"));
  EXPECT_EQ(InfoValue(first, "fingerprint"), InfoValue(second, "fingerprint"));
  EXPECT_EQ(first.clients.attempted, second.clients.attempted);
}

}  // namespace
}  // namespace perfbench
