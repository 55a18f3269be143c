// Message-loss robustness: the paper assumes eventually-reliable links with
// a finite but unknown number of lost messages (§2.1). Narwhal's quorum
// re-transmission (§4.1) and pull synchronizers must mask random loss; these
// tests inject i.i.d. drop rates and require continued liveness + safety.
#include <gtest/gtest.h>

#include "src/common/trace.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

struct LossRun {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::vector<Digest>> sequences;
  std::vector<std::unique_ptr<LoadGenerator>> clients;
};

LossRun RunTuskWithLoss(double loss_rate, uint64_t seed, TimeDelta duration) {
  LossRun run;
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = seed;
  config.trace = true;  // Retransmission-bound assertions use trace counters.
  run.cluster = std::make_unique<Cluster>(config);
  run.cluster->faults().SetLossRate(loss_rate);
  run.sequences.resize(4);
  for (ValidatorId v = 0; v < 4; ++v) {
    run.cluster->tusk(v)->add_on_commit(
        [&run, v](const Tusk::Committed& c) { run.sequences[v].push_back(c.digest); });
  }
  run.cluster->metrics().set_observer(0);
  run.cluster->metrics().SetWindow(Seconds(3), duration);
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = duration;
  for (ValidatorId v = 0; v < 4; ++v) {
    run.clients.push_back(std::make_unique<LoadGenerator>(run.cluster.get(), v, 0, options));
    run.clients.back()->Start();
  }
  run.cluster->Start();
  run.cluster->scheduler().RunUntil(duration);
  return run;
}

TEST(LossTest, TuskToleratesModerateLoss) {
  LossRun run = RunTuskWithLoss(0.05, 11, Seconds(25));
  // Liveness: the DAG and commits keep flowing (retransmission covers loss).
  EXPECT_GT(run.cluster->primary(0)->dag().HighestRound(), 15u);
  EXPECT_GT(run.cluster->metrics().committed_txs(), 10000u);
  // Safety: full agreement.
  for (ValidatorId a = 0; a < 4; ++a) {
    for (ValidatorId b = a + 1; b < 4; ++b) {
      size_t common = std::min(run.sequences[a].size(), run.sequences[b].size());
      ASSERT_GT(common, 0u);
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(run.sequences[a][i], run.sequences[b][i]);
      }
    }
  }
}

TEST(LossTest, TuskSurvivesHeavyLoss) {
  LossRun run = RunTuskWithLoss(0.25, 13, Seconds(40));
  // A quarter of all messages vanish; progress slows but never stops.
  EXPECT_GT(run.cluster->primary(0)->dag().HighestRound(), 8u);
  EXPECT_GT(run.sequences[0].size(), 5u);
}

TEST(LossTest, LossCostsRetransmissions) {
  // The same workload with and without loss: loss forces strictly more
  // messages per committed transaction (the §4.1 re-transmission cost).
  LossRun clean = RunTuskWithLoss(0.0, 17, Seconds(15));
  LossRun lossy = RunTuskWithLoss(0.10, 17, Seconds(15));
  double clean_ratio = static_cast<double>(clean.cluster->network().messages_sent()) /
                       std::max<uint64_t>(1, clean.cluster->metrics().committed_txs());
  double lossy_ratio = static_cast<double>(lossy.cluster->network().messages_sent()) /
                       std::max<uint64_t>(1, lossy.cluster->metrics().committed_txs());
  EXPECT_GT(lossy_ratio, clean_ratio);
}

TEST(LossTest, BatchRetransmissionsBackOffGeometrically) {
  // Worker batch re-transmission must be geometric in the time a batch stays
  // unacked, not linear: with kBatchResend (500 ms, capped at 6 doublings)
  // the k-th retry round fires at ~0.5 * (2^k - 1) s, so even a batch stuck
  // for the whole 40 s run sees at most 7 rounds. A linear (fixed-delay)
  // retry would fire ~80 times.
  LossRun run = RunTuskWithLoss(0.25, 13, Seconds(40));
  const Tracer* tracer = run.cluster->tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_GT(tracer->counter("batch_retry/rounds"), 0u)
      << "25% loss must force some batch retransmission";
  EXPECT_LE(tracer->max_retry_rounds("batch_retry"), 7u)
      << "batch retries grew linearly instead of backing off";
}

TEST(LossTest, BatchedHsDegradesUnderLoss) {
  // Best-effort dissemination has no retransmission: under loss, proposals
  // reference batches some validators never received, forcing synchronous
  // fetches before votes — the §6 fragility in its mildest form.
  auto run_batched = [](double loss) {
    ClusterConfig config;
    config.system = SystemKind::kBatchedHs;
    config.num_validators = 4;
    config.seed = 19;
    Cluster cluster(config);
    cluster.faults().SetLossRate(loss);
    cluster.metrics().set_observer(0);
    cluster.metrics().SetWindow(Seconds(3), Seconds(20));
    std::vector<std::unique_ptr<LoadGenerator>> clients;
    LoadGenerator::Options options;
    options.rate_tps = 500;
    options.stop_at = Seconds(20);
    for (ValidatorId v = 0; v < 4; ++v) {
      clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
      clients.back()->Start();
    }
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(20));
    return cluster.metrics().latency_seconds().Mean();
  };
  double clean_latency = run_batched(0.0);
  double lossy_latency = run_batched(0.10);
  EXPECT_GT(lossy_latency, clean_latency * 1.3) << "loss should visibly hurt batched-HS";
}

}  // namespace
}  // namespace nt
