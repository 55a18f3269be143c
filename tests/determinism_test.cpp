// Determinism audit for the simulator: the same seeded experiment, run twice
// in the same process, must produce bit-identical results — event-stream
// hash, commit counts, throughput/latency metrics, and the Chrome trace JSON
// written by the tracer. Any divergence means hidden nondeterminism (map
// iteration order leaking into scheduling, uninitialized reads, wall-clock
// use) and would break `ntcheck --replay` repro files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/runtime/experiment.h"

namespace nt {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DeterminismTest, SameScheduleSameEventHash) {
  for (uint64_t seed : {1ull, 17ull, 42ull}) {
    FaultSchedule schedule = GenerateSchedule(seed);
    CheckResult a = RunSchedule(schedule);
    CheckResult b = RunSchedule(schedule);
    EXPECT_NE(a.event_hash, 0u) << "seed " << seed;
    EXPECT_EQ(a.event_hash, b.event_hash) << "seed " << seed;
    EXPECT_EQ(a.events_fired, b.events_fired) << "seed " << seed;
    EXPECT_EQ(a.commits, b.commits) << "seed " << seed;
    EXPECT_EQ(a.violations.size(), b.violations.size()) << "seed " << seed;
  }
}

TEST(DeterminismTest, BullsharkSameScheduleSameEventHash) {
  // The seed draw never picks Bullshark (frozen two-way choice), so pin it:
  // its commit path — anchor schedule, chain walk, WAL writes — must be as
  // replay-stable as Tusk's.
  for (uint64_t seed : {1ull, 17ull, 42ull}) {
    FaultSchedule schedule = GenerateSchedule(seed, SystemKind::kBullshark);
    CheckResult a = RunSchedule(schedule);
    CheckResult b = RunSchedule(schedule);
    EXPECT_NE(a.event_hash, 0u) << "seed " << seed;
    EXPECT_EQ(a.event_hash, b.event_hash) << "seed " << seed;
    EXPECT_EQ(a.events_fired, b.events_fired) << "seed " << seed;
    EXPECT_EQ(a.commits, b.commits) << "seed " << seed;
    EXPECT_GT(a.commits, 0u) << "seed " << seed;
    EXPECT_EQ(a.violations.size(), b.violations.size()) << "seed " << seed;
  }
}

TEST(DeterminismTest, SelfCheckPasses) {
  // The built-in double-run self check (used by `ntcheck --replay`) must not
  // flag a determinism violation on a healthy schedule.
  CheckResult result = RunScheduleWithDeterminismCheck(GenerateSchedule(3));
  for (const Violation& v : result.violations) {
    EXPECT_NE(v.invariant, "determinism") << v.detail;
  }
}

TEST(DeterminismTest, DifferentSeedsDifferentTimelines) {
  CheckResult a = RunSchedule(GenerateSchedule(1));
  CheckResult b = RunSchedule(GenerateSchedule(2));
  EXPECT_NE(a.event_hash, b.event_hash);
}

TEST(DeterminismTest, ExperimentMetricsAndTraceJsonIdentical) {
  std::string dir = ::testing::TempDir();
  auto run = [&dir](const std::string& tag) {
    ExperimentParams params;
    params.cluster.system = SystemKind::kTusk;
    params.cluster.num_validators = 4;
    params.cluster.seed = 9;
    params.cluster.trace = true;
    params.rate_tps = 2000;
    params.duration = Seconds(6);
    params.warmup = Seconds(1);
    params.trace_path = dir + "/determinism_" + tag + ".json";
    ExperimentResult result = RunExperiment(params);
    EXPECT_TRUE(result.trace_written);
    return std::make_pair(result, ReadFile(params.trace_path));
  };

  auto [r1, trace1] = run("a");
  auto [r2, trace2] = run("b");

  EXPECT_GT(r1.committed_txs, 0u);
  EXPECT_EQ(r1.committed_txs, r2.committed_txs);
  EXPECT_EQ(r1.sampled_txs, r2.sampled_txs);
  EXPECT_DOUBLE_EQ(r1.tps, r2.tps);
  EXPECT_DOUBLE_EQ(r1.avg_latency_s, r2.avg_latency_s);
  EXPECT_DOUBLE_EQ(r1.p50_latency_s, r2.p50_latency_s);
  EXPECT_DOUBLE_EQ(r1.p99_latency_s, r2.p99_latency_s);

  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2) << "trace JSON differs between identical seeded runs";

  std::remove((dir + "/determinism_a.json").c_str());
  std::remove((dir + "/determinism_b.json").c_str());
}

}  // namespace
}  // namespace nt
