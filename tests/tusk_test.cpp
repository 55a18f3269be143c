// Tusk consensus unit tests: wave arithmetic, the commit rule, the exact
// Figure 5 scenario (leader lacking f+1 support skipped, then ordered by a
// later committed leader through a DAG path), deferral on incomplete
// histories, and order agreement across differently-scheduled replicas.
#include "src/tusk/tusk.h"

#include <gtest/gtest.h>

#include <memory>

namespace nt {
namespace {

// Coin with a scripted leader per wave (tests pick the DAG shape freely).
class ScriptedCoin : public ThresholdCoin {
 public:
  explicit ScriptedCoin(std::vector<uint32_t> leaders) : leaders_(std::move(leaders)) {}
  uint32_t LeaderOf(uint64_t wave, uint32_t committee_size) const override {
    if (wave - 1 < leaders_.size()) {
      return leaders_[wave - 1] % committee_size;
    }
    return static_cast<uint32_t>(wave % committee_size);
  }

 private:
  std::vector<uint32_t> leaders_;  // leaders_[w-1] = leader of wave w.
};

struct NullNode : NetNode {
  void OnMessage(uint32_t, const MessagePtr&) override {}
};

// Drives a single validator's Tusk instance over a hand-built DAG.
class TuskHarness {
 public:
  static constexpr uint32_t kN = 4;  // f = 1.

  explicit TuskHarness(std::vector<uint32_t> wave_leaders, Round gc_depth = 1000)
      : latency_(Millis(1)), coin_(std::move(wave_leaders)) {
    network_ = std::make_unique<Network>(&scheduler_, &latency_, &faults_, NetworkConfig{}, 1);
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < kN; ++v) {
      signers_.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(5, v)));
      infos.push_back(ValidatorInfo{signers_.back()->public_key(), 0});
    }
    committee_ = Committee(std::move(infos));
    // A sink node so synchronizer sends have a destination.
    uint32_t sink_id = network_->AddNode(&sink_, 0, network_->NewMachine());
    topology_.primary_of.assign(kN, sink_id);
    topology_.worker_of.assign(kN, {sink_id});

    primary_ = std::make_unique<Primary>(0, committee_, NarwhalConfig{}, network_.get(),
                                         &topology_, signers_[0].get());
    tusk_ = std::make_unique<Tusk>(primary_.get(), committee_, &coin_, gc_depth);
    tusk_->add_on_commit([this](const Tusk::Committed& c) { commits_.push_back(c); });
  }

  struct Node {
    Digest digest{};
    std::shared_ptr<BlockHeader> header;
    Certificate cert;
  };

  // Creates a certified block and injects it into the local DAG, notifying
  // Tusk as the primary would.
  Node Add(Round round, ValidatorId author, const std::vector<Node>& parents,
           bool with_header = true) {
    auto header = std::make_shared<BlockHeader>();
    header->author = author;
    header->round = round;
    for (const Node& p : parents) {
      header->parents.push_back(p.cert);
    }
    Node node;
    node.header = header;
    node.digest = header->ComputeDigest();
    Bytes preimage = Certificate::VotePreimage(node.digest, round, author);
    std::vector<VoteList::Entry> votes;
    for (uint32_t v = 0; v < committee_.quorum_threshold(); ++v) {
      votes.emplace_back(v, signers_[v]->Sign(preimage));
    }
    node.cert = Certificate(node.digest, round, author, votes);
    Dag& dag = primary_->mutable_dag();
    EXPECT_TRUE(dag.AddCertificate(node.cert));
    if (with_header) {
      dag.AddHeader(header, node.digest);
    }
    tusk_->OnCertificate(node.cert);
    return node;
  }

  void AddHeaderLate(const Node& node) {
    primary_->mutable_dag().AddHeader(node.header, node.digest);
    tusk_->OnHeaderStored(node.digest);
  }

  // Builds a full round where every validator references all blocks of
  // `parents`.
  std::vector<Node> FullRound(Round round, const std::vector<Node>& parents) {
    std::vector<Node> nodes;
    for (ValidatorId v = 0; v < kN; ++v) {
      nodes.push_back(Add(round, v, parents));
    }
    return nodes;
  }

  bool Committed(const Node& node) const {
    for (const auto& c : commits_) {
      if (c.digest == node.digest) {
        return true;
      }
    }
    return false;
  }

  int CommitIndex(const Node& node) const {
    for (size_t i = 0; i < commits_.size(); ++i) {
      if (commits_[i].digest == node.digest) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  Scheduler scheduler_;
  FixedLatencyModel latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  NullNode sink_;
  Topology topology_;
  Committee committee_;
  std::vector<std::unique_ptr<Signer>> signers_;
  ScriptedCoin coin_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<Tusk> tusk_;
  std::vector<Tusk::Committed> commits_;
};

TEST(TuskTest, WaveRoundArithmetic) {
  // Waves of 3 rounds with third/first piggybacking: wave w = (2w-1, 2w, 2w+1).
  EXPECT_EQ(Tusk::WaveFirstRound(1), 1u);
  EXPECT_EQ(Tusk::WaveSecondRound(1), 2u);
  EXPECT_EQ(Tusk::WaveThirdRound(1), 3u);
  EXPECT_EQ(Tusk::WaveFirstRound(2), 3u);  // Piggybacked on wave 1's third.
  EXPECT_EQ(Tusk::WaveThirdRound(2), 5u);
}

TEST(TuskTest, CommitsLeaderWithSupport) {
  TuskHarness h({0});
  auto genesis = h.FullRound(0, {});
  auto r1 = h.FullRound(1, genesis);  // Leader = validator 0's round-1 block.
  auto r2 = h.FullRound(2, r1);       // All 4 reference the leader: 4 >= f+1.
  EXPECT_TRUE(h.commits_.empty());    // Wave incomplete: coin not yet revealed.
  auto r3 = h.FullRound(3, r2);
  EXPECT_TRUE(h.Committed(r1[0]));
  EXPECT_EQ(h.tusk_->last_committed_wave(), 1u);
  // The leader's causal history (genesis + round 1 blocks it references)
  // is committed with it, leader last among them.
  EXPECT_TRUE(h.Committed(genesis[0]));
  EXPECT_LT(h.CommitIndex(genesis[0]), h.CommitIndex(r1[0]));
}

TEST(TuskTest, SkipsLeaderWithoutSupport) {
  TuskHarness h({3, 2});
  auto genesis = h.FullRound(0, {});
  auto r1 = h.FullRound(1, genesis);
  // Round 2 blocks reference only validators 0-2's blocks: leader (3) gets
  // 0 < f+1 votes.
  std::vector<TuskHarness::Node> r1_no_leader = {r1[0], r1[1], r1[2]};
  std::vector<TuskHarness::Node> r2;
  for (ValidatorId v = 0; v < 4; ++v) {
    r2.push_back(h.Add(2, v, r1_no_leader));
  }
  auto r3 = h.FullRound(3, r2);
  EXPECT_FALSE(h.Committed(r1[3]));
  EXPECT_EQ(h.tusk_->last_committed_wave(), 0u);
  EXPECT_EQ(h.tusk_->skipped_leaders(), 1u);
}

// The paper's Figure 5: L1 (wave 1) has fewer than f+1 second-round votes
// and is skipped when round 3 is interpreted. L2 (wave 2) gets f+1 votes in
// round 4 and commits when round 5 completes. Since a path L2 -> L1 exists,
// L1 is ordered before L2.
TEST(TuskTest, Figure5ScenarioOrdersSkippedLeaderThroughPath) {
  TuskHarness h({/*wave1*/ 3, /*wave2*/ 0});
  auto genesis = h.FullRound(0, {});
  auto r1 = h.FullRound(1, genesis);
  const auto& l1 = r1[3];

  // Round 2: only validator 1's block references L1 (1 < f+1 = 2).
  std::vector<TuskHarness::Node> r2;
  r2.push_back(h.Add(2, 0, {r1[0], r1[1], r1[2]}));
  r2.push_back(h.Add(2, 1, {r1[0], r1[1], r1[2], l1}));  // The only L1 vote.
  r2.push_back(h.Add(2, 2, {r1[0], r1[1], r1[2]}));
  r2.push_back(h.Add(2, 3, {r1[0], r1[1], r1[2]}));

  // Round 3 completes wave 1: L1 must be skipped, nothing committed.
  // L2 = validator 0's round-3 block. Crucially its parents include
  // validator 1's round-2 block, which references L1 — the L2 -> L1 path.
  auto r3 = h.FullRound(3, r2);
  const auto& l2 = r3[0];
  EXPECT_TRUE(h.commits_.empty());
  EXPECT_EQ(h.tusk_->skipped_leaders(), 1u);

  // Round 4: f+1 = 2 blocks vote for L2.
  std::vector<TuskHarness::Node> r4;
  r4.push_back(h.Add(4, 0, {r3[0], r3[1], r3[2]}));
  r4.push_back(h.Add(4, 1, {r3[0], r3[1], r3[3]}));
  r4.push_back(h.Add(4, 2, {r3[1], r3[2], r3[3]}));
  r4.push_back(h.Add(4, 3, {r3[1], r3[2], r3[3]}));

  // Round 5 completes wave 2: L2 commits, and L1 is ordered before it.
  h.FullRound(5, r4);
  EXPECT_TRUE(h.Committed(l2));
  EXPECT_TRUE(h.Committed(l1));
  EXPECT_LT(h.CommitIndex(l1), h.CommitIndex(l2));
  EXPECT_EQ(h.tusk_->last_committed_wave(), 2u);
  // Every commit callback is ordered: the anchor's history precedes it.
  for (size_t i = 1; i < h.commits_.size(); ++i) {
    EXPECT_LE(h.commits_[i - 1].wave, h.commits_[i].wave);
  }
}

// Delivery walks each anchor's causal history once per commit event: the
// completeness walk of the committed leader is the one delivered, and each
// leader ordered by path is walked once more. A direct commit used to cost
// two walks.
TEST(TuskTest, OneHistoryWalkPerDeliveredAnchor) {
  // Wave 1's leader (3) is skipped and then ordered through wave 2's; waves
  // 3 and 4 commit directly.
  TuskHarness h({3, 0, 1, 2});
  auto genesis = h.FullRound(0, {});
  auto r1 = h.FullRound(1, genesis);
  std::vector<TuskHarness::Node> r2;
  r2.push_back(h.Add(2, 0, {r1[0], r1[1], r1[2]}));
  r2.push_back(h.Add(2, 1, {r1[0], r1[1], r1[2], r1[3]}));
  r2.push_back(h.Add(2, 2, {r1[0], r1[1], r1[2]}));
  r2.push_back(h.Add(2, 3, {r1[0], r1[1], r1[2]}));
  std::vector<TuskHarness::Node> prev = r2;
  for (Round r = 3; r <= 9; ++r) {
    prev = h.FullRound(r, prev);
  }
  ASSERT_EQ(h.tusk_->last_committed_wave(), 4u);

  // An anchor is the one delivered header of its own leader round.
  uint64_t anchors = 0;
  for (const Tusk::Committed& c : h.commits_) {
    anchors += c.header->round == c.leader_round ? 1 : 0;
  }
  EXPECT_EQ(anchors, 4u);
  EXPECT_EQ(h.tusk_->history_walks(), anchors);
}

TEST(TuskTest, DefersCommitOnMissingHeaderThenRecovers) {
  TuskHarness h({0});
  // Validator 2's genesis header is withheld (certificate only); it is in
  // the causal history of every round-1 block, so the wave-1 commit must
  // wait for it.
  std::vector<TuskHarness::Node> genesis;
  for (ValidatorId v = 0; v < 4; ++v) {
    genesis.push_back(h.Add(0, v, {}, /*with_header=*/v != 2));
  }
  auto r1 = h.FullRound(1, genesis);
  auto r2 = h.FullRound(2, r1);
  h.FullRound(3, r2);
  EXPECT_TRUE(h.commits_.empty());
  h.AddHeaderLate(genesis[2]);
  EXPECT_TRUE(h.Committed(r1[0]));
  EXPECT_TRUE(h.Committed(genesis[2]));
  // The withheld header is ordered within the history, before the leader.
  EXPECT_LT(h.CommitIndex(genesis[2]), h.CommitIndex(r1[0]));
}

TEST(TuskTest, AbsentLeaderCertificateSkipsWave) {
  TuskHarness h({3, 0});
  auto genesis = h.FullRound(0, {});
  // Validator 3 (wave-1 leader) produces no round-1 block at all.
  std::vector<TuskHarness::Node> r1;
  for (ValidatorId v = 0; v < 3; ++v) {
    r1.push_back(h.Add(1, v, genesis));
  }
  auto r2 = h.FullRound(2, r1);
  auto r3 = h.FullRound(3, r2);
  EXPECT_EQ(h.tusk_->last_committed_wave(), 0u);
  // Wave 2 commits normally.
  auto r4 = h.FullRound(4, r3);
  h.FullRound(5, r4);
  EXPECT_EQ(h.tusk_->last_committed_wave(), 2u);
  EXPECT_TRUE(h.Committed(r3[0]));
}

TEST(TuskTest, GcAdvancesWithCommits) {
  const Round kGcDepth = 2;
  TuskHarness h({0, 0, 0, 0, 0, 0, 0, 0}, kGcDepth);
  std::vector<TuskHarness::Node> prev = h.FullRound(0, {});
  for (Round r = 1; r <= 9; ++r) {
    prev = h.FullRound(r, prev);
  }
  // Waves 1..4 committed (leader rounds 1,3,5,7): GC horizon follows.
  EXPECT_GE(h.tusk_->last_committed_wave(), 3u);
  EXPECT_GT(h.primary_->dag().gc_round(), 0u);
  EXPECT_LE(h.primary_->dag().gc_round(), 7u);
}

// Order agreement: two replicas receive the same DAG under different
// interleavings (one sees whole rounds, the other per-author streams) and
// must emit identical commit sequences.
TEST(TuskTest, OrderAgreementAcrossDeliverySchedules) {
  auto run = [](bool author_major) {
    TuskHarness h({1, 2, 3, 0, 1});
    std::vector<std::vector<TuskHarness::Node>> rounds;
    std::vector<TuskHarness::Node> prev;
    if (author_major) {
      // Same DAG, but authors within each round added in reverse order.
      for (Round r = 0; r <= 11; ++r) {
        std::vector<TuskHarness::Node> nodes(4);
        for (int v = 3; v >= 0; --v) {
          nodes[v] = h.Add(r, static_cast<ValidatorId>(v), prev);
        }
        prev = nodes;
      }
    } else {
      for (Round r = 0; r <= 11; ++r) {
        prev = h.FullRound(r, prev);
      }
    }
    std::vector<Digest> sequence;
    for (const auto& c : h.commits_) {
      sequence.push_back(c.digest);
    }
    return sequence;
  };
  auto seq_a = run(false);
  auto seq_b = run(true);
  EXPECT_FALSE(seq_a.empty());
  EXPECT_EQ(seq_a, seq_b);
}

}  // namespace
}  // namespace nt
