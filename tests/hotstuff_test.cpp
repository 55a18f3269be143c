// HotStuff consensus: QC/TC validation, safety (identical committed
// sequences across validators under crashes and leader failures), liveness
// through timeout certificates, and view pipelining.
#include "src/hotstuff/hotstuff.h"

#include <gtest/gtest.h>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

// --------------------------------------------------------- unit-level checks

struct QcFixture : ::testing::Test {
  QcFixture() {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < 4; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(31, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
  }

  std::vector<std::unique_ptr<Signer>> signers;
  Committee committee;
  VerifiedCertCache cache;  // The verifying validator's own.
};

TEST_F(QcFixture, QuorumCertVerifies) {
  QuorumCert qc;
  qc.block_digest = Sha256::Hash("block");
  qc.view = 7;
  Bytes preimage = QuorumCert::VotePreimage(qc.block_digest, qc.view);
  std::vector<VoteList::Entry> votes;
  for (uint32_t v = 0; v < 3; ++v) {
    votes.emplace_back(v, signers[v]->Sign(preimage));
  }
  qc.votes = VoteList(votes);
  EXPECT_TRUE(qc.Verify(committee, *signers[0], &cache));

  QuorumCert wrong_view = qc;
  wrong_view.view = 8;
  EXPECT_FALSE(wrong_view.Verify(committee, *signers[0], &cache));

  QuorumCert short_qc = qc;
  std::vector<VoteList::Entry> short_votes = qc.votes.Entries();
  short_votes.pop_back();
  short_qc.votes = VoteList(short_votes);
  EXPECT_FALSE(short_qc.Verify(committee, *signers[0], &cache));

  QuorumCert dup = qc;
  std::vector<VoteList::Entry> dup_votes = qc.votes.Entries();
  dup_votes[2] = dup_votes[0];
  dup.votes = VoteList(dup_votes);
  EXPECT_FALSE(dup.Verify(committee, *signers[0], &cache));
}

TEST_F(QcFixture, GenesisQcIsExempt) {
  QuorumCert genesis;
  EXPECT_TRUE(genesis.IsGenesis());
  EXPECT_TRUE(genesis.Verify(committee, *signers[0], &cache));
}

TEST_F(QcFixture, TimeoutCertVerifies) {
  TimeoutCert tc;
  tc.view = 3;
  Bytes preimage = TimeoutCert::VotePreimage(3);
  std::vector<VoteList::Entry> votes;
  for (uint32_t v = 1; v < 4; ++v) {
    votes.emplace_back(v, signers[v]->Sign(preimage));
  }
  tc.votes = VoteList(votes);
  EXPECT_TRUE(tc.Verify(committee, *signers[0], &cache));
  tc.view = 4;
  EXPECT_FALSE(tc.Verify(committee, *signers[0], &cache));
}

TEST_F(QcFixture, BlockDigestCoversPayloadAndChain) {
  HsBlock a;
  a.author = 1;
  a.view = 5;
  a.payload.kind = HsPayload::Kind::kTransactions;
  a.payload.num_txs = 10;
  HsBlock b = a;
  EXPECT_EQ(a.ComputeDigest(), b.ComputeDigest());
  b.payload.num_txs = 11;
  EXPECT_NE(a.ComputeDigest(), b.ComputeDigest());
  HsBlock c = a;
  c.parent = Sha256::Hash("other-parent");
  EXPECT_NE(a.ComputeDigest(), c.ComputeDigest());
}

// ------------------------------------------------------ cluster-level checks

// Records each validator's commit sequence for agreement checks.
struct CommitLog {
  std::vector<std::vector<Digest>> per_validator;

  void Attach(Cluster& cluster, uint32_t n) {
    per_validator.resize(n);
    for (uint32_t v = 0; v < n; ++v) {
      cluster.hotstuff(v)->set_on_commit([this, v](const HsBlock& block, View) {
        per_validator[v].push_back(block.ComputeDigest());
      });
    }
  }

  // Every pair of sequences must be prefix-consistent (safety).
  void ExpectAgreement() const {
    for (size_t a = 0; a < per_validator.size(); ++a) {
      for (size_t b = a + 1; b < per_validator.size(); ++b) {
        size_t common = std::min(per_validator[a].size(), per_validator[b].size());
        for (size_t i = 0; i < common; ++i) {
          ASSERT_EQ(per_validator[a][i], per_validator[b][i])
              << "validators " << a << " and " << b << " disagree at index " << i;
        }
      }
    }
  }
};

ClusterConfig HsClusterConfig(uint32_t n, uint64_t seed) {
  ClusterConfig config;
  config.system = SystemKind::kBatchedHs;
  config.num_validators = n;
  config.seed = seed;
  return config;
}

TEST(HotStuffClusterTest, AllValidatorsCommitSameSequence) {
  Cluster cluster(HsClusterConfig(4, 3));
  CommitLog log;
  log.Attach(cluster, 4);
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(10);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (uint32_t v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));

  EXPECT_GT(log.per_validator[0].size(), 5u);
  log.ExpectAgreement();
}

TEST(HotStuffClusterTest, SafetyUnderCrashFaults) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Cluster cluster(HsClusterConfig(7, seed));  // f = 2.
    CommitLog log;
    log.Attach(cluster, 7);
    cluster.CrashValidator(6, 0);
    cluster.CrashValidator(5, Seconds(4));  // Crash mid-run.
    LoadGenerator::Options options;
    options.rate_tps = 300;
    options.stop_at = Seconds(20);
    std::vector<std::unique_ptr<LoadGenerator>> clients;
    for (uint32_t v = 0; v < 7; ++v) {
      clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
      clients.back()->Start();
    }
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(20));

    // Liveness despite two crashes: the live validators keep committing.
    EXPECT_GT(log.per_validator[0].size(), 3u) << "seed " << seed;
    log.ExpectAgreement();
  }
}

TEST(HotStuffClusterTest, ViewsAdvancePastCrashedLeaders) {
  Cluster cluster(HsClusterConfig(4, 9));
  cluster.CrashValidator(3, 0);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));
  // Views containing the crashed leader (every 4th) are skipped via TCs.
  EXPECT_GT(cluster.hotstuff(0)->current_view(), 10u);
  EXPECT_GT(cluster.hotstuff(0)->timeouts_fired(), 0u);
  EXPECT_GT(cluster.hotstuff(0)->committed_blocks(), 3u);
}

TEST(HotStuffClusterTest, RecoversAfterPartition) {
  Cluster cluster(HsClusterConfig(4, 5));
  CommitLog log;
  log.Attach(cluster, 4);
  // Validator 1 is unreachable for 5 seconds mid-run, then heals.
  cluster.IsolateValidator(1, Seconds(3), Seconds(8));
  LoadGenerator::Options options;
  options.rate_tps = 400;
  options.stop_at = Seconds(20);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (uint32_t v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(20));

  log.ExpectAgreement();
  // The partitioned validator catches up to the rest after healing.
  EXPECT_GT(log.per_validator[1].size(), log.per_validator[0].size() / 2);
}

TEST(HotStuffClusterTest, NoProgressWithoutQuorum) {
  // 4 validators, 2 crashed: only 2 < 2f+1 = 3 remain; no commits ever.
  Cluster cluster(HsClusterConfig(4, 2));
  cluster.CrashValidator(3, 0);
  cluster.CrashValidator(2, 0);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));
  EXPECT_EQ(cluster.hotstuff(0)->committed_blocks(), 0u);
}

}  // namespace
}  // namespace nt
