// DAG-Rider over Narwhal (paper §8.2): 4-round waves, 2f+1 path-votes.
// Verifies commit behaviour, order agreement, and the latency gap to Tusk
// (the ablation the 3-round piggybacked wave buys), plus the DagCommitter
// seam all three committers share.
#include "src/tusk/dag_rider.h"

#include <gtest/gtest.h>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/tusk/tusk.h"

namespace nt {
namespace {

TEST(DagRiderTest, WaveArithmetic) {
  EXPECT_EQ(DagRider::WaveFirstRound(1), 1u);
  EXPECT_EQ(DagRider::WaveLastRound(1), 4u);
  EXPECT_EQ(DagRider::WaveFirstRound(2), 5u);  // No piggybacking.
  EXPECT_EQ(DagRider::WaveLastRound(2), 8u);
}

TEST(DagRiderTest, CommitsAndAgreesAcrossValidators) {
  ClusterConfig config;
  config.system = SystemKind::kDagRider;
  config.num_validators = 4;
  config.seed = 11;
  Cluster cluster(config);
  std::vector<std::vector<Digest>> sequences(4);
  for (ValidatorId v = 0; v < 4; ++v) {
    cluster.committer(v)->add_on_commit(
        [&sequences, v](const DagCommitter::Committed& c) { sequences[v].push_back(c.digest); });
  }
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(15);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));

  ASSERT_GT(sequences[0].size(), 10u);
  for (ValidatorId a = 0; a < 4; ++a) {
    for (ValidatorId b = a + 1; b < 4; ++b) {
      size_t common = std::min(sequences[a].size(), sequences[b].size());
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(sequences[a][i], sequences[b][i]);
      }
    }
  }
  EXPECT_GT(cluster.committer(0)->last_committed_wave(), 1u);
}

TEST(DagRiderTest, PinnedRunEventHashAndCommits) {
  // Freezes one fixed 4-validator DAG-Rider run bit-for-bit: the engine's
  // event hash plus every validator's committed-header count.
  ClusterConfig config;
  config.system = SystemKind::kDagRider;
  config.num_validators = 4;
  config.seed = 11;
  Cluster cluster(config);
  std::vector<uint64_t> commits(4, 0);
  for (ValidatorId v = 0; v < 4; ++v) {
    cluster.committer(v)->add_on_commit(
        [&commits, v](const DagCommitter::Committed&) { ++commits[v]; });
  }
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(15);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));

  EXPECT_EQ(cluster.scheduler().event_hash(), 0x84102bebe08f477full)
      << std::hex << cluster.scheduler().event_hash();
  EXPECT_EQ(cluster.scheduler().events_fired(), 14287u);
  EXPECT_EQ(commits, (std::vector<uint64_t>{148, 148, 163, 163}));
  EXPECT_EQ(cluster.committer(0)->last_committed_wave(), 10u);
}

TEST(DagRiderTest, TuskCommitsFasterPerRound) {
  // Ablation (paper §5): Tusk's 3-round piggybacked waves yield leaders
  // every 2 rounds; DAG-Rider's 4-round waves every 4. Over the same wall
  // clock, Tusk must anchor strictly more commits per DAG round.
  auto run = [](SystemKind system) {
    ClusterConfig config;
    config.system = system;
    config.num_validators = 4;
    config.seed = 13;
    Cluster cluster(config);
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(15));
    Round top = cluster.primary(0)->dag().HighestRound();
    return std::make_pair(top, cluster.committer(0)->last_committed_wave());
  };
  auto [tusk_rounds, tusk_waves] = run(SystemKind::kTusk);
  auto [rider_rounds, rider_waves] = run(SystemKind::kDagRider);
  ASSERT_GT(tusk_waves, 0u);
  ASSERT_GT(rider_waves, 0u);
  // Anchors per round: Tusk ~1/2, DAG-Rider ~1/4.
  double tusk_rate = static_cast<double>(tusk_waves) / tusk_rounds;
  double rider_rate = static_cast<double>(rider_waves) / rider_rounds;
  EXPECT_GT(tusk_rate, rider_rate * 1.5);
}

TEST(DagRiderTest, CommitterReceivesTracer) {
  ClusterConfig config;
  config.system = SystemKind::kDagRider;
  config.num_validators = 4;
  config.seed = 9;
  config.trace = true;
  Cluster cluster(config);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  ASSERT_GT(cluster.committer(0)->last_committed_wave(), 0u);
  // Every validator's committer bumps the shared counter once per wave.
  uint64_t waves = 0;
  for (ValidatorId v = 0; v < 4; ++v) {
    waves += cluster.committer(v)->last_committed_wave();
  }
  EXPECT_EQ(cluster.tracer()->counter("dag_rider/committed_waves"), waves);
}

// The DagCommitter seam: every committer is reached through committer(v),
// agrees across validators, and stamps each delivery with its rule's
// decision round — 2w+1 (Tusk's coin-reveal round), 2w (Bullshark's support
// round) and 4w (DAG-Rider's last round).
TEST(DagCommitterSeamTest, AgreementAndDecisionRoundPerRule) {
  struct Rule {
    SystemKind system;
    uint64_t decision_per_wave;
    uint64_t decision_offset;
  };
  for (const Rule& rule : {Rule{SystemKind::kTusk, 2, 1}, Rule{SystemKind::kBullshark, 2, 0},
                           Rule{SystemKind::kDagRider, 4, 0}}) {
    SCOPED_TRACE(SystemName(rule.system));
    ClusterConfig config;
    config.system = rule.system;
    config.num_validators = 4;
    config.seed = 5;
    Cluster cluster(config);
    std::vector<std::vector<Digest>> sequences(4);
    uint64_t bad_decision_rounds = 0;
    for (ValidatorId v = 0; v < 4; ++v) {
      DagCommitter* committer = cluster.committer(v);
      ASSERT_NE(committer, nullptr);
      committer->add_on_commit([&, v, committer](const DagCommitter::Committed& c) {
        sequences[v].push_back(c.digest);
        if (c.decision_round != rule.decision_per_wave * c.wave + rule.decision_offset ||
            c.decision_round != committer->DecisionRound(c.wave) ||
            c.leader_round > committer->LeaderRound(c.wave)) {
          ++bad_decision_rounds;
        }
      });
    }
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(12));

    EXPECT_EQ(bad_decision_rounds, 0u);
    ASSERT_GT(sequences[0].size(), 10u);
    for (ValidatorId v = 1; v < 4; ++v) {
      size_t common = std::min(sequences[0].size(), sequences[v].size());
      ASSERT_GT(common, 0u);
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(sequences[0][i], sequences[v][i]) << "validator " << v << " commit #" << i;
      }
    }
    EXPECT_EQ(cluster.tusk(0) != nullptr, rule.system == SystemKind::kTusk);
    EXPECT_EQ(cluster.bullshark(0) != nullptr, rule.system == SystemKind::kBullshark);
  }
}

}  // namespace
}  // namespace nt
