// Differential test of the live Tusk commit rule against the pure reference
// replay (src/check/oracle.h): 200 seeded random DAGs — varying committee
// size, per-round participation, parent choice, and GC depth — are fed
// certificate-by-certificate into a live Tusk instance and once, wholesale,
// into ReplayTusk. The two interpretations of the paper's §5 commit rule
// must produce identical committed sequences; any divergence means either
// the live deferral/GC machinery or the oracle mis-implements the rule.
#include "src/check/oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "src/crypto/coin.h"
#include "src/narwhal/primary.h"
#include "src/tusk/tusk.h"

namespace nt {
namespace {

struct NullNode : NetNode {
  void OnMessage(uint32_t, const MessagePtr&) override {}
};

// Drives one validator's live Tusk over an externally built DAG while
// mirroring every certificate and header into a union DAG for the oracle.
class OracleHarness {
 public:
  OracleHarness(uint32_t n, uint64_t coin_seed, Round gc_depth)
      : n_(n), latency_(Millis(1)), coin_(coin_seed), gc_depth_(gc_depth) {
    network_ = std::make_unique<Network>(&scheduler_, &latency_, &faults_, NetworkConfig{}, 1);
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < n; ++v) {
      signers_.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(11, v)));
      infos.push_back(ValidatorInfo{signers_.back()->public_key(), 0});
    }
    committee_ = Committee(std::move(infos));
    uint32_t sink_id = network_->AddNode(&sink_, 0, network_->NewMachine());
    topology_.primary_of.assign(n, sink_id);
    topology_.worker_of.assign(n, {sink_id});
    primary_ = std::make_unique<Primary>(0, committee_, NarwhalConfig{}, network_.get(),
                                         &topology_, signers_[0].get());
    tusk_ = std::make_unique<Tusk>(primary_.get(), committee_, &coin_, gc_depth);
    tusk_->add_on_commit([this](const Tusk::Committed& c) { live_.push_back(c.digest); });
  }

  struct Node {
    Digest digest{};
    Certificate cert;
  };

  Node Add(Round round, ValidatorId author, const std::vector<Node>& parents) {
    auto header = std::make_shared<BlockHeader>();
    header->author = author;
    header->round = round;
    for (const Node& p : parents) {
      header->parents.push_back(p.cert);
    }
    Node node;
    node.digest = header->ComputeDigest();
    Bytes preimage = Certificate::VotePreimage(node.digest, round, author);
    std::vector<VoteList::Entry> votes;
    for (uint32_t v = 0; v < committee_.quorum_threshold(); ++v) {
      votes.emplace_back(v, signers_[v]->Sign(preimage));
    }
    node.cert = Certificate(node.digest, round, author, votes);
    Dag& dag = primary_->mutable_dag();
    EXPECT_TRUE(dag.AddCertificate(node.cert));
    dag.AddHeader(header, node.digest);
    union_dag_.AddCertificate(node.cert);
    union_dag_.AddHeader(header, node.digest);
    tusk_->OnCertificate(node.cert);
    return node;
  }

  std::vector<Digest> Replay() const {
    return ReplayTusk(union_dag_, committee_, coin_, gc_depth_).ordered;
  }

  const std::vector<Digest>& live() const { return live_; }
  uint32_t n() const { return n_; }
  uint32_t quorum() const { return committee_.quorum_threshold(); }

 private:
  uint32_t n_;
  Scheduler scheduler_;
  FixedLatencyModel latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  NullNode sink_;
  Topology topology_;
  std::vector<std::unique_ptr<Signer>> signers_;
  Committee committee_;
  CommonCoin coin_;
  Round gc_depth_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<Tusk> tusk_;
  Dag union_dag_;
  std::vector<Digest> live_;
};

// Grows a random DAG: every round keeps a quorum of authors (drawn at
// random) and every header references a random quorum-or-more subset of the
// previous round's certificates — exactly the degrees of freedom the
// protocol permits, and the ones the commit rule's f+1-support check and
// leader-path ordering are sensitive to.
void RunRandomDag(uint64_t seed) {
  std::mt19937_64 rng(seed);
  uint32_t n = (rng() % 2 == 0) ? 4 : 7;
  Round gc_depth = (rng() % 2 == 0) ? 1000 : 20;
  OracleHarness h(n, /*coin_seed=*/seed, gc_depth);

  uint32_t rounds = 10 + static_cast<uint32_t>(rng() % 16);
  std::vector<OracleHarness::Node> prev;
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<ValidatorId> authors(n);
    for (uint32_t v = 0; v < n; ++v) {
      authors[v] = v;
    }
    for (uint32_t i = n - 1; i > 0; --i) {
      std::swap(authors[i], authors[rng() % (i + 1)]);
    }
    uint32_t count = h.quorum() + static_cast<uint32_t>(rng() % (n - h.quorum() + 1));
    std::vector<OracleHarness::Node> next;
    for (uint32_t i = 0; i < count; ++i) {
      std::vector<OracleHarness::Node> parents;
      if (r > 1) {
        parents = prev;
        for (uint32_t j = static_cast<uint32_t>(parents.size()) - 1; j > 0; --j) {
          std::swap(parents[j], parents[rng() % (j + 1)]);
        }
        uint32_t keep =
            h.quorum() + static_cast<uint32_t>(rng() % (parents.size() - h.quorum() + 1));
        parents.resize(keep);
      }
      next.push_back(h.Add(r, authors[i], parents));
    }
    prev = std::move(next);
  }

  std::vector<Digest> replay = h.Replay();
  ASSERT_EQ(h.live().size(), replay.size()) << "seed " << seed;
  for (size_t i = 0; i < replay.size(); ++i) {
    ASSERT_EQ(h.live()[i], replay[i]) << "seed " << seed << " diverges at commit #" << i;
  }
}

TEST(TuskVsOracle, TwoHundredRandomDags) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunRandomDag(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace nt
