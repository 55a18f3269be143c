// Differential test of the live Bullshark commit rule against the pure
// reference replay (src/check/oracle.h), mirroring tusk_vs_oracle_test: 200
// seeded random DAGs — varying committee size, per-round participation,
// parent choice, and GC depth — are fed certificate-by-certificate into a
// live Bullshark instance and once, wholesale, into ReplayBullshark. The two
// interpretations of the 2-round commit rule must produce identical
// committed sequences. A reputation-enabled band exercises the Shoal anchor
// schedule the same way, and two cross-protocol tests drive Tusk and
// Bullshark over the *same* DAG: each must stay prefix-consistent with its
// own oracle, and on a fault-free DAG Bullshark's per-header commit lag
// (feed round at delivery minus header round) must beat Tusk's — the
// latency claim the 2-round rule exists for.
#include "src/check/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "src/bullshark/bullshark.h"
#include "src/crypto/coin.h"
#include "src/narwhal/primary.h"
#include "src/tusk/tusk.h"

namespace nt {
namespace {

struct NullNode : NetNode {
  void OnMessage(uint32_t, const MessagePtr&) override {}
};

// A DAG built once from a seed and replayed identically into any number of
// harnesses (Tusk and Bullshark must see byte-identical structure, but they
// GC the primary's DAG at different paces, so they cannot share one).
struct DagPlan {
  struct Block {
    Round round = 0;
    ValidatorId author = 0;
    std::vector<size_t> parents;  // Indices into `blocks`.
  };
  uint32_t n = 4;
  Round gc_depth = 1000;
  std::vector<Block> blocks;
};

// Grows a random plan with the same degrees of freedom as the Tusk oracle
// test: every round keeps a quorum-or-more of authors and every header
// references a random quorum-or-more subset of the previous round.
DagPlan RandomPlan(uint64_t seed) {
  std::mt19937_64 rng(seed);
  DagPlan plan;
  plan.n = (rng() % 2 == 0) ? 4 : 7;
  plan.gc_depth = (rng() % 2 == 0) ? 1000 : 20;
  uint32_t quorum = 2 * ((plan.n - 1) / 3) + 1;

  uint32_t rounds = 10 + static_cast<uint32_t>(rng() % 16);
  std::vector<size_t> prev;
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<ValidatorId> authors(plan.n);
    for (uint32_t v = 0; v < plan.n; ++v) {
      authors[v] = v;
    }
    for (uint32_t i = plan.n - 1; i > 0; --i) {
      std::swap(authors[i], authors[rng() % (i + 1)]);
    }
    uint32_t count = quorum + static_cast<uint32_t>(rng() % (plan.n - quorum + 1));
    std::vector<size_t> next;
    for (uint32_t i = 0; i < count; ++i) {
      DagPlan::Block block;
      block.round = r;
      block.author = authors[i];
      if (r > 1) {
        std::vector<size_t> parents = prev;
        for (uint32_t j = static_cast<uint32_t>(parents.size()) - 1; j > 0; --j) {
          std::swap(parents[j], parents[rng() % (j + 1)]);
        }
        uint32_t keep = quorum + static_cast<uint32_t>(rng() % (parents.size() - quorum + 1));
        parents.resize(keep);
        block.parents = std::move(parents);
      }
      next.push_back(plan.blocks.size());
      plan.blocks.push_back(std::move(block));
    }
    prev = std::move(next);
  }
  return plan;
}

// A fault-free full DAG: every author every round, every block referencing
// all of the previous round — the best case both commit rules advertise.
DagPlan FullPlan(uint32_t n, Round rounds) {
  DagPlan plan;
  plan.n = n;
  std::vector<size_t> prev;
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<size_t> next;
    for (uint32_t v = 0; v < n; ++v) {
      DagPlan::Block block;
      block.round = r;
      block.author = v;
      block.parents = prev;
      next.push_back(plan.blocks.size());
      plan.blocks.push_back(std::move(block));
    }
    prev = std::move(next);
  }
  return plan;
}

// One validator's live consensus over an externally built DAG, mirroring
// every certificate and header into a union DAG for the oracle. The
// consensus instance is attached by the subclass ctor.
class HarnessBase {
 public:
  HarnessBase(uint32_t n, Round gc_depth) : latency_(Millis(1)), gc_depth_(gc_depth) {
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
  }
  virtual ~HarnessBase() = default;

  // Feeds the whole plan. `on_round` (optional) fires after each completed
  // round with the feed round just finished.
  void Feed(const DagPlan& plan, const std::function<void(Round)>& on_round = nullptr) {
    std::vector<Certificate> certs(plan.blocks.size());
    Round current = plan.blocks.empty() ? 0 : plan.blocks.front().round;
    for (size_t i = 0; i < plan.blocks.size(); ++i) {
      const DagPlan::Block& b = plan.blocks[i];
      if (b.round != current) {
        if (on_round != nullptr) {
          on_round(current);
        }
        current = b.round;
      }
      auto header = std::make_shared<BlockHeader>();
      header->author = b.author;
      header->round = b.round;
      for (size_t p : b.parents) {
        header->parents.push_back(certs[p]);
      }
      Digest digest = header->ComputeDigest();
      Bytes preimage = Certificate::VotePreimage(digest, b.round, b.author);
      std::vector<VoteList::Entry> votes;
      for (uint32_t v = 0; v < committee_.quorum_threshold(); ++v) {
        votes.emplace_back(v, signers_[v]->Sign(preimage));
      }
      Certificate& cert = certs[i];
      cert = Certificate(digest, b.round, b.author, votes);
      Dag& dag = primary_->mutable_dag();
      ASSERT_TRUE(dag.AddCertificate(cert));
      dag.AddHeader(header, digest);
      union_dag_.AddCertificate(cert);
      union_dag_.AddHeader(header, digest);
      feed_round_ = b.round;
      OnCert(cert);
    }
    if (on_round != nullptr && current != 0) {
      on_round(current);
    }
  }

  const std::vector<Digest>& live() const { return live_; }
  const std::vector<Round>& lags() const { return lags_; }
  const Committee& committee() const { return committee_; }
  const Dag& union_dag() const { return union_dag_; }
  Round gc_depth() const { return gc_depth_; }

 protected:
  virtual void OnCert(const Certificate& cert) = 0;

  // Called by the subclass's commit hook.
  void Deliver(const Digest& digest, const BlockHeader& header) {
    live_.push_back(digest);
    lags_.push_back(feed_round_ - header.round);
  }

  Scheduler scheduler_;
  FixedLatencyModel latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  NullNode sink_;
  Topology topology_;
  std::vector<std::unique_ptr<Signer>> signers_;
  Committee committee_;
  Round gc_depth_;
  std::unique_ptr<Primary> primary_;
  Dag union_dag_;
  std::vector<Digest> live_;
  std::vector<Round> lags_;
  Round feed_round_ = 0;
};

class BullsharkHarness : public HarnessBase {
 public:
  BullsharkHarness(uint32_t n, Round gc_depth, BullsharkConfig config = {})
      : HarnessBase(n, gc_depth), config_(config) {
    bullshark_ = std::make_unique<Bullshark>(primary_.get(), committee_, gc_depth, config);
    bullshark_->add_on_commit([this](const Bullshark::Committed& c) {
      EXPECT_EQ(c.decision_round, Bullshark::WaveSupportRound(c.wave));
      Deliver(c.digest, *c.header);
    });
  }

  std::vector<Digest> Replay() const {
    BullsharkReplay replay = ReplayBullshark(union_dag_, committee_, gc_depth_, config_);
    EXPECT_TRUE(replay.complete);
    return replay.ordered;
  }

 protected:
  void OnCert(const Certificate& cert) override { bullshark_->OnCertificate(cert); }

 private:
  BullsharkConfig config_;
  std::unique_ptr<Bullshark> bullshark_;
};

class TuskHarness : public HarnessBase {
 public:
  TuskHarness(uint32_t n, Round gc_depth, uint64_t coin_seed)
      : HarnessBase(n, gc_depth), coin_(coin_seed) {
    tusk_ = std::make_unique<Tusk>(primary_.get(), committee_, &coin_, gc_depth);
    tusk_->add_on_commit(
        [this](const Tusk::Committed& c) { Deliver(c.digest, *c.header); });
  }

  std::vector<Digest> Replay() const {
    return ReplayTusk(union_dag_, committee_, coin_, gc_depth_).ordered;
  }

 protected:
  void OnCert(const Certificate& cert) override { tusk_->OnCertificate(cert); }

 private:
  CommonCoin coin_;
  std::unique_ptr<Tusk> tusk_;
};

void ExpectLiveMatchesReplay(const HarnessBase& h, const std::vector<Digest>& replay,
                             uint64_t seed, const char* what) {
  ASSERT_EQ(h.live().size(), replay.size()) << what << " seed " << seed;
  for (size_t i = 0; i < replay.size(); ++i) {
    ASSERT_EQ(h.live()[i], replay[i])
        << what << " seed " << seed << " diverges at commit #" << i;
  }
}

TEST(BullsharkVsOracle, TwoHundredRandomDags) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    DagPlan plan = RandomPlan(seed);
    BullsharkHarness h(plan.n, plan.gc_depth);
    h.Feed(plan);
    ExpectLiveMatchesReplay(h, h.Replay(), seed, "bullshark");
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// The Shoal reputation schedule must replay identically too: live and oracle
// fold the same settled-outcome sequence, so enabling the flag on both sides
// cannot introduce divergence even when it reroutes anchors.
TEST(BullsharkVsOracle, ReputationScheduleMatchesOracle) {
  BullsharkConfig config;
  config.reputation = true;
  config.reputation_window = 4;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    DagPlan plan = RandomPlan(seed);
    BullsharkHarness h(plan.n, plan.gc_depth, config);
    h.Feed(plan);
    ExpectLiveMatchesReplay(h, h.Replay(), seed, "bullshark+reputation");
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Tusk and Bullshark interpret the *same* DAG: each live sequence must stay
// a prefix of its own oracle's final order at every point of the feed (the
// live sequences are append-only, so checking the final sequences equal
// covers every intermediate prefix).
TEST(BullsharkVsOracle, CrossProtocolPrefixConsistencyOnSharedDag) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DagPlan plan = RandomPlan(seed);
    BullsharkHarness bullshark(plan.n, plan.gc_depth);
    TuskHarness tusk(plan.n, plan.gc_depth, /*coin_seed=*/seed);
    size_t bullshark_prev = 0;
    size_t tusk_prev = 0;
    bullshark.Feed(plan, [&](Round) {
      EXPECT_GE(bullshark.live().size(), bullshark_prev) << "seed " << seed;
      bullshark_prev = bullshark.live().size();
    });
    tusk.Feed(plan, [&](Round) {
      EXPECT_GE(tusk.live().size(), tusk_prev) << "seed " << seed;
      tusk_prev = tusk.live().size();
    });
    ExpectLiveMatchesReplay(bullshark, bullshark.Replay(), seed, "bullshark");
    ExpectLiveMatchesReplay(tusk, tusk.Replay(), seed, "tusk");
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

Round MedianLag(std::vector<Round> lags) {
  EXPECT_FALSE(lags.empty());
  std::sort(lags.begin(), lags.end());
  return lags.empty() ? 0 : lags[lags.size() / 2];
}

// The point of the 2-round rule: on a fault-free full DAG Bullshark decides
// wave w at round 2w (anchors every 2 rounds) while Tusk waits for the coin
// at round 2w+1 (anchors every 2 rounds but committing only ~2/3 of waves on
// expectation) — so the median rounds-until-commit per header must be
// strictly lower for Bullshark.
TEST(BullsharkVsOracle, LowerCommitLagThanTuskOnFaultFreeDag) {
  DagPlan plan = FullPlan(/*n=*/4, /*rounds=*/40);
  BullsharkHarness bullshark(plan.n, plan.gc_depth);
  TuskHarness tusk(plan.n, plan.gc_depth, /*coin_seed=*/7);
  bullshark.Feed(plan);
  tusk.Feed(plan);
  ExpectLiveMatchesReplay(bullshark, bullshark.Replay(), 0, "bullshark");
  ExpectLiveMatchesReplay(tusk, tusk.Replay(), 0, "tusk");

  // Both committed a healthy share of the 160 headers...
  EXPECT_GE(bullshark.live().size(), 100u);
  EXPECT_GE(tusk.live().size(), 100u);
  // ...but Bullshark needed strictly fewer DAG rounds to get each one out.
  EXPECT_LT(MedianLag(bullshark.lags()), MedianLag(tusk.lags()));
}

}  // namespace
}  // namespace nt
