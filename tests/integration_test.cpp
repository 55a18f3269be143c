// End-to-end cluster tests: all four systems commit transactions on the
// simulated WAN; crash faults and partitions are survived by the
// Narwhal-based systems.
#include <gtest/gtest.h>

#include "src/runtime/experiment.h"

namespace nt {
namespace {

ExperimentParams BaseParams(SystemKind system) {
  ExperimentParams params;
  params.cluster.system = system;
  params.cluster.num_validators = 4;
  params.cluster.workers_per_validator = 1;
  params.cluster.seed = 7;
  params.rate_tps = 2000;
  params.duration = Seconds(12);
  params.warmup = Seconds(4);
  return params;
}

TEST(IntegrationTest, TuskCommitsTransactions) {
  ExperimentResult result = RunExperiment(BaseParams(SystemKind::kTusk));
  EXPECT_GT(result.committed_txs, 1000u);
  EXPECT_GT(result.tps, 500.0);
  EXPECT_GT(result.sampled_txs, 10u);
  EXPECT_GT(result.avg_latency_s, 0.0);
  EXPECT_LT(result.avg_latency_s, 10.0);
}

TEST(IntegrationTest, NarwhalHsCommitsTransactions) {
  ExperimentResult result = RunExperiment(BaseParams(SystemKind::kNarwhalHs));
  EXPECT_GT(result.committed_txs, 1000u);
  EXPECT_GT(result.tps, 500.0);
  EXPECT_GT(result.sampled_txs, 0u);
  EXPECT_LT(result.avg_latency_s, 10.0);
}

TEST(IntegrationTest, BatchedHsCommitsTransactions) {
  ExperimentResult result = RunExperiment(BaseParams(SystemKind::kBatchedHs));
  EXPECT_GT(result.committed_txs, 1000u);
  EXPECT_GT(result.sampled_txs, 0u);
  EXPECT_LT(result.avg_latency_s, 10.0);
}

TEST(IntegrationTest, BaselineHsCommitsTransactions) {
  ExperimentParams params = BaseParams(SystemKind::kBaselineHs);
  params.rate_tps = 1000;
  ExperimentResult result = RunExperiment(params);
  EXPECT_GT(result.committed_txs, 500u);
  EXPECT_GT(result.sampled_txs, 0u);
  EXPECT_LT(result.avg_latency_s, 10.0);
}

TEST(IntegrationTest, DagRiderCommitsTransactions) {
  ExperimentResult result = RunExperiment(BaseParams(SystemKind::kDagRider));
  EXPECT_GT(result.committed_txs, 1000u);
}

TEST(IntegrationTest, TuskSurvivesOneCrash) {
  ExperimentParams params = BaseParams(SystemKind::kTusk);
  params.cluster.num_validators = 4;
  params.faults = 1;
  ExperimentResult result = RunExperiment(params);
  EXPECT_GT(result.committed_txs, 500u);
}

TEST(IntegrationTest, NarwhalHsSurvivesOneCrash) {
  ExperimentParams params = BaseParams(SystemKind::kNarwhalHs);
  params.faults = 1;
  ExperimentResult result = RunExperiment(params);
  EXPECT_GT(result.committed_txs, 500u);
}

// Each worker seals its own batches, so a header references batches held by
// several workers; execution must fetch each through the worker that holds
// it, or every batch of the second worker stalls its lane for good.
TEST(IntegrationTest, ShardedExecutionReadsEveryWorkersBatches) {
  ExperimentParams params = BaseParams(SystemKind::kTusk);
  params.rate_tps = 10000;
  params.duration = Seconds(10);
  params.cluster.exec_lanes = 2;
  params.cluster.collocate = false;
  const uint64_t one_worker = RunExperiment(params).exec_applied;
  params.cluster.workers_per_validator = 2;
  const uint64_t two_workers = RunExperiment(params).exec_applied;
  EXPECT_GT(one_worker, 10000u);
  EXPECT_GT(two_workers, one_worker / 2);
}

TEST(IntegrationTest, DeterministicForSameSeed) {
  ExperimentResult a = RunExperiment(BaseParams(SystemKind::kTusk));
  ExperimentResult b = RunExperiment(BaseParams(SystemKind::kTusk));
  EXPECT_EQ(a.committed_txs, b.committed_txs);
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
}

}  // namespace
}  // namespace nt
