// Differential test of the live DAG commit rules — Tusk, Bullshark and
// DAG-Rider — against the one pure reference replay (ReplayCommits,
// src/check/oracle.h): 200 seeded random DAGs per rule — varying committee
// size, per-round participation, parent choice, and GC depth — are fed
// certificate-by-certificate into a live committer and once, wholesale, into
// the replay. The two interpretations of each rule must produce identical
// committed sequences; any divergence means either the live deferral/GC
// machinery or the replay mis-implements the rule. A reputation-enabled band
// exercises Bullshark's Shoal anchor schedule the same way; a cross-protocol
// test drives every rule over the *same* DAG; on a fault-free DAG
// Bullshark's per-header commit lag (feed round at delivery minus header
// round) must beat Tusk's — the latency claim the 2-round rule exists for;
// and a union DAG missing one header must stop the replay with `complete`
// cleared.
#include "src/check/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <memory>
#include <random>
#include <string>

#include "src/bullshark/bullshark.h"
#include "src/crypto/coin.h"
#include "src/narwhal/primary.h"
#include "src/tusk/dag_rider.h"
#include "src/tusk/tusk.h"

namespace nt {
namespace {

struct NullNode : NetNode {
  void OnMessage(uint32_t, const MessagePtr&) override {}
};

// A DAG built once from a seed and replayed identically into any number of
// harnesses (the rules must see byte-identical structure, but they GC the
// primary's DAG at different paces, so they cannot share one).
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

// Grows a random plan: every round keeps a quorum-or-more of authors (drawn
// at random) and every header references a random quorum-or-more subset of
// the previous round's certificates — exactly the degrees of freedom the
// protocol permits, and the ones the support checks and leader-path ordering
// are sensitive to.
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
// all of the previous round — the best case every commit rule advertises.
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

// The committee of n FastSigner validators every plan is signed with.
struct Keys {
  explicit Keys(uint32_t n) {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < n; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(11, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
  }
  std::vector<std::unique_ptr<Signer>> signers;
  Committee committee;
};

// One plan block as a validator receives it: the header and its certificate.
struct Block {
  std::shared_ptr<const BlockHeader> header;
  Certificate cert;
};

// Builds every block of `plan`, in plan order, certified by a quorum.
std::vector<Block> Materialize(const DagPlan& plan, const Keys& keys) {
  std::vector<Block> out(plan.blocks.size());
  for (size_t i = 0; i < plan.blocks.size(); ++i) {
    const DagPlan::Block& b = plan.blocks[i];
    auto header = std::make_shared<BlockHeader>();
    header->author = b.author;
    header->round = b.round;
    for (size_t p : b.parents) {
      header->parents.push_back(out[p].cert);
    }
    Digest digest = header->ComputeDigest();
    Bytes preimage = Certificate::VotePreimage(digest, b.round, b.author);
    std::vector<VoteList::Entry> votes;
    for (uint32_t v = 0; v < keys.committee.quorum_threshold(); ++v) {
      votes.emplace_back(v, keys.signers[v]->Sign(preimage));
    }
    out[i].header = std::move(header);
    out[i].cert = Certificate(digest, b.round, b.author, votes);
  }
  return out;
}

// The gtest-safe spelling of a rule's name ("DAGRider").
std::string RuleName(SystemKind rule) {
  std::string name = SystemName(rule);
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](unsigned char c) { return std::isalnum(c) == 0; }),
             name.end());
  return name;
}

// One validator's live committer for `rule` over an externally built DAG,
// mirroring every certificate and header into a union DAG for the replay.
class Harness {
 public:
  Harness(SystemKind rule, const DagPlan& plan, uint64_t coin_seed = 0,
          BullsharkConfig bullshark = {})
      : rule_(rule),
        keys_(plan.n),
        latency_(Millis(1)),
        coin_(coin_seed),
        gc_depth_(plan.gc_depth),
        bullshark_(bullshark) {
    network_ = std::make_unique<Network>(&scheduler_, &latency_, &faults_, NetworkConfig{}, 1);
    uint32_t sink_id = network_->AddNode(&sink_, 0, network_->NewMachine());
    topology_.primary_of.assign(plan.n, sink_id);
    topology_.worker_of.assign(plan.n, {sink_id});
    primary_ = std::make_unique<Primary>(0, keys_.committee, NarwhalConfig{}, network_.get(),
                                         &topology_, keys_.signers[0].get());
    switch (rule) {
      case SystemKind::kTusk:
        committer_ = std::make_unique<Tusk>(primary_.get(), keys_.committee, &coin_, gc_depth_);
        break;
      case SystemKind::kBullshark:
        committer_ = std::make_unique<Bullshark>(primary_.get(), keys_.committee, gc_depth_,
                                                 bullshark_);
        break;
      case SystemKind::kDagRider:
      default:
        committer_ = std::make_unique<DagRider>(primary_.get(), keys_.committee, &coin_);
        break;
    }
    committer_->add_on_commit([this](const DagCommitter::Committed& c) {
      EXPECT_EQ(c.decision_round, committer_->DecisionRound(c.wave));
      live_.push_back(c.digest);
      lags_.push_back(feed_round_ - c.header->round);
    });
  }

  // Feeds the whole plan. `on_round` (optional) fires after each completed
  // round with the feed round just finished.
  void Feed(const DagPlan& plan, const std::function<void(Round)>& on_round = nullptr) {
    Round current = plan.blocks.empty() ? 0 : plan.blocks.front().round;
    for (const Block& block : Materialize(plan, keys_)) {
      if (block.cert.round != current) {
        if (on_round != nullptr) {
          on_round(current);
        }
        current = block.cert.round;
      }
      Dag& dag = primary_->mutable_dag();
      ASSERT_TRUE(dag.AddCertificate(block.cert));
      dag.AddHeader(block.header, block.cert.header_digest);
      union_dag_.AddCertificate(block.cert);
      union_dag_.AddHeader(block.header, block.cert.header_digest);
      feed_round_ = block.cert.round;
      committer_->OnCertificate(block.cert);
    }
    if (on_round != nullptr && current != 0) {
      on_round(current);
    }
  }

  CommitReplay Replay() const {
    return ReplayCommits(union_dag_, rule_, keys_.committee, coin_, gc_depth_, bullshark_);
  }

  // Asserts the live sequence equals the replay's, which saw everything.
  void ExpectMatchesReplay(uint64_t seed) const {
    CommitReplay replay = Replay();
    EXPECT_TRUE(replay.complete) << RuleName(rule_) << " seed " << seed;
    ASSERT_EQ(live_.size(), replay.ordered.size()) << RuleName(rule_) << " seed " << seed;
    for (size_t i = 0; i < live_.size(); ++i) {
      ASSERT_EQ(live_[i], replay.ordered[i])
          << RuleName(rule_) << " seed " << seed << " diverges at commit #" << i;
    }
  }

  const std::vector<Digest>& live() const { return live_; }
  const std::vector<Round>& lags() const { return lags_; }

 private:
  SystemKind rule_;
  Keys keys_;
  Scheduler scheduler_;
  FixedLatencyModel latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  NullNode sink_;
  Topology topology_;
  CommonCoin coin_;
  Round gc_depth_;
  BullsharkConfig bullshark_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<DagCommitter> committer_;
  Dag union_dag_;
  std::vector<Digest> live_;
  std::vector<Round> lags_;
  Round feed_round_ = 0;
};

class EveryDagRule : public ::testing::TestWithParam<SystemKind> {};

TEST_P(EveryDagRule, TwoHundredRandomDags) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    DagPlan plan = RandomPlan(seed);
    Harness h(GetParam(), plan, /*coin_seed=*/seed);
    h.Feed(plan);
    h.ExpectMatchesReplay(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Every rule's wave-1 leader sits in round 1, so its history is itself and
// it commits on a full DAG; every later leader's history holds all of round
// 2. A union DAG missing one round-2 header must therefore order exactly
// the wave-1 leader and stop with `complete` cleared — the flag the checker
// relies on to tell an under-observed run from a live validator that
// committed more than the rule allows.
TEST_P(EveryDagRule, ReplayStopsAtAnUnderObservedHistory) {
  DagPlan plan = FullPlan(/*n=*/4, /*rounds=*/16);
  Keys keys(plan.n);
  CommonCoin coin(/*seed=*/7);
  Dag full;
  Dag partial;
  for (const Block& block : Materialize(plan, keys)) {
    full.AddCertificate(block.cert);
    full.AddHeader(block.header, block.cert.header_digest);
    partial.AddCertificate(block.cert);
    if (block.cert.round != 2 || block.cert.author != 1) {  // The one header nobody stored.
      partial.AddHeader(block.header, block.cert.header_digest);
    }
  }
  CommitReplay complete = ReplayCommits(full, GetParam(), keys.committee, coin, plan.gc_depth);
  ASSERT_TRUE(complete.complete);
  ASSERT_GT(complete.ordered.size(), 1u);

  CommitReplay replay = ReplayCommits(partial, GetParam(), keys.committee, coin, plan.gc_depth);
  EXPECT_FALSE(replay.complete);
  ASSERT_EQ(replay.ordered.size(), 1u);
  EXPECT_EQ(replay.ordered[0], complete.ordered[0]);
}

INSTANTIATE_TEST_SUITE_P(Rules, EveryDagRule,
                         ::testing::Values(SystemKind::kTusk, SystemKind::kBullshark,
                                           SystemKind::kDagRider),
                         [](const ::testing::TestParamInfo<SystemKind>& param) {
                           return RuleName(param.param);
                         });

// The Shoal reputation schedule must replay identically too: live and replay
// fold the same settled-outcome sequence, so enabling the flag on both sides
// cannot introduce divergence even when it reroutes anchors.
TEST(DagRulesVsOracle, BullsharkReputationScheduleMatchesOracle) {
  BullsharkConfig config;
  config.reputation = true;
  config.reputation_window = 4;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    DagPlan plan = RandomPlan(seed);
    Harness h(SystemKind::kBullshark, plan, /*coin_seed=*/0, config);
    h.Feed(plan);
    h.ExpectMatchesReplay(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// The rules interpret the *same* DAG: each live sequence must only grow
// round by round and end equal to its own replay's order (the live sequences
// are append-only, so checking the final sequences equal covers every
// intermediate prefix).
TEST(DagRulesVsOracle, CrossProtocolPrefixConsistencyOnSharedDag) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DagPlan plan = RandomPlan(seed);
    for (SystemKind rule : {SystemKind::kBullshark, SystemKind::kTusk, SystemKind::kDagRider}) {
      Harness h(rule, plan, /*coin_seed=*/seed);
      size_t prev = 0;
      h.Feed(plan, [&](Round) {
        EXPECT_GE(h.live().size(), prev) << RuleName(rule) << " seed " << seed;
        prev = h.live().size();
      });
      h.ExpectMatchesReplay(seed);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
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
TEST(DagRulesVsOracle, LowerCommitLagThanTuskOnFaultFreeDag) {
  DagPlan plan = FullPlan(/*n=*/4, /*rounds=*/40);
  Harness bullshark(SystemKind::kBullshark, plan);
  Harness tusk(SystemKind::kTusk, plan, /*coin_seed=*/7);
  bullshark.Feed(plan);
  tusk.Feed(plan);
  bullshark.ExpectMatchesReplay(0);
  tusk.ExpectMatchesReplay(0);

  // Both committed a healthy share of the 160 headers...
  EXPECT_GE(bullshark.live().size(), 100u);
  EXPECT_GE(tusk.live().size(), 100u);
  // ...but Bullshark needed strictly fewer DAG rounds to get each one out.
  EXPECT_LT(MedianLag(bullshark.lags()), MedianLag(tusk.lags()));
}

}  // namespace
}  // namespace nt
