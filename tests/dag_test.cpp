// The certificate DAG: storage, conflict detection, garbage collection,
// path queries, and deterministic causal-history linearization.
#include "src/narwhal/dag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "src/common/rng.h"

namespace nt {
namespace {

// Test-local DAG builder: fabricates headers/certificates without
// cryptography (the Dag never verifies — the Primary does).
class DagBuilder {
 public:
  struct Node {
    Digest digest{};
    std::shared_ptr<BlockHeader> header;
  };

  // Adds a block for (round, author) referencing the given parents.
  Node Add(Dag& dag, Round round, ValidatorId author, const std::vector<Node>& parents,
           bool with_header = true) {
    auto header = std::make_shared<BlockHeader>();
    header->author = author;
    header->round = round;
    for (const Node& p : parents) {
      Certificate parent_cert;
      parent_cert.header_digest = p.digest;
      parent_cert.round = p.header->round;
      parent_cert.author = p.header->author;
      header->parents.push_back(parent_cert);
    }
    Node node;
    node.header = header;
    node.digest = header->ComputeDigest();

    Certificate cert;
    cert.header_digest = node.digest;
    cert.round = round;
    cert.author = author;
    EXPECT_TRUE(dag.AddCertificate(cert));
    if (with_header) {
      dag.AddHeader(header, node.digest);
    }
    return node;
  }
};

TEST(DagTest, StoresAndLooksUpCertificates) {
  Dag dag;
  DagBuilder b;
  auto n = b.Add(dag, 3, 2, {});
  EXPECT_NE(dag.GetCert(3, 2), nullptr);
  EXPECT_EQ(dag.GetCert(3, 1), nullptr);
  EXPECT_EQ(dag.GetCert(2, 2), nullptr);
  EXPECT_NE(dag.GetCertByDigest(n.digest), nullptr);
  EXPECT_TRUE(dag.HasHeader(n.digest));
  EXPECT_EQ(dag.CertCountAt(3), 1u);
  EXPECT_EQ(dag.HighestRound(), 3u);
}

TEST(DagTest, DuplicateIsIdempotentConflictRejected) {
  Dag dag;
  DagBuilder b;
  auto n = b.Add(dag, 1, 0, {});
  Certificate dup;
  dup.header_digest = n.digest;
  dup.round = 1;
  dup.author = 0;
  EXPECT_TRUE(dag.AddCertificate(dup));  // Idempotent.
  EXPECT_EQ(dag.TotalCertificates(), 1u);

  Certificate conflict;
  conflict.header_digest = Sha256::Hash("other");
  conflict.round = 1;
  conflict.author = 0;
  EXPECT_FALSE(dag.AddCertificate(conflict));  // Equivocation.
  EXPECT_EQ(dag.GetCert(1, 0)->header_digest, n.digest);
}

// A conflict is rejected every time but logged once per Dag, so a broken
// quorum rule does not bury a run's verdict under one line per delivery.
TEST(DagTest, LogsOnlyTheFirstConflict) {
  Dag dag;
  DagBuilder b;
  b.Add(dag, 1, 0, {});
  b.Add(dag, 2, 3, {});
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 3; ++i) {
    for (auto [round, author] : {std::pair<Round, ValidatorId>{1, 0}, {2, 3}}) {
      Certificate conflict;
      conflict.header_digest = Sha256::Hash("other " + std::to_string(i));
      conflict.round = round;
      conflict.author = author;
      EXPECT_FALSE(dag.AddCertificate(conflict));
    }
  }
  const std::string logged = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(logged.begin(), logged.end(), '\n'), 1) << logged;
  EXPECT_NE(logged.find("conflicting certificates for round 1 author 0"), std::string::npos);
}

// The Dag keeps the pointer it is given: every index and the GC record hand
// back that object, never a copy.
TEST(DagTest, KeepsTheCertificatePointerItIsGiven) {
  Dag dag;
  auto cert = std::make_shared<Certificate>();
  cert->header_digest = Sha256::Hash("shared");
  cert->round = 2;
  cert->author = 1;
  const CertPtr given = cert;
  EXPECT_TRUE(dag.AddCertificate(given));
  EXPECT_EQ(dag.GetCertByDigest(cert->header_digest), given.get());
  EXPECT_EQ(dag.GetCert(2, 1), given.get());
  EXPECT_EQ(dag.GetSharedCert(cert->header_digest), given);
  EXPECT_EQ(dag.CertsAt(2).at(1), given);

  // A duplicate delivery leaves the first object in place.
  EXPECT_TRUE(dag.AddCertificate(*given));
  EXPECT_EQ(dag.GetCertByDigest(cert->header_digest), given.get());

  std::vector<Dag::Collected> collected = dag.GarbageCollect(3);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].cert, given);
}

TEST(DagTest, HasPathFollowsParentEdges) {
  Dag dag;
  DagBuilder b;
  auto r1a = b.Add(dag, 1, 0, {});
  auto r1b = b.Add(dag, 1, 1, {});
  auto r2 = b.Add(dag, 2, 0, {r1a});
  auto r3 = b.Add(dag, 3, 0, {r2});
  EXPECT_TRUE(dag.HasPath(r3.digest, r1a.digest));
  EXPECT_TRUE(dag.HasPath(r3.digest, r2.digest));
  EXPECT_TRUE(dag.HasPath(r3.digest, r3.digest));  // Reflexive.
  EXPECT_FALSE(dag.HasPath(r3.digest, r1b.digest));
  EXPECT_FALSE(dag.HasPath(r1a.digest, r3.digest));  // Wrong direction.
}

TEST(DagTest, CausalHistoryOrderedByRoundThenAuthor) {
  Dag dag;
  DagBuilder b;
  auto a0 = b.Add(dag, 0, 0, {});
  auto a1 = b.Add(dag, 0, 1, {});
  auto a2 = b.Add(dag, 0, 2, {});
  auto m1 = b.Add(dag, 1, 2, {a2, a1, a0});
  auto m2 = b.Add(dag, 1, 1, {a0, a1});
  auto top = b.Add(dag, 2, 0, {m1, m2});

  Dag::History history = dag.CollectCausalHistory(top.digest, {});
  ASSERT_TRUE(history.missing.empty());
  ASSERT_EQ(history.ordered.size(), 6u);
  EXPECT_EQ(history.ordered[0], a0.digest);
  EXPECT_EQ(history.ordered[1], a1.digest);
  EXPECT_EQ(history.ordered[2], a2.digest);
  EXPECT_EQ(history.ordered[3], m2.digest);  // Round 1: author 1 < author 2.
  EXPECT_EQ(history.ordered[4], m1.digest);
  EXPECT_EQ(history.ordered[5], top.digest);  // Anchor last.
}

TEST(DagTest, CausalHistoryExcludesCommitted) {
  Dag dag;
  DagBuilder b;
  auto a = b.Add(dag, 0, 0, {});
  auto m = b.Add(dag, 1, 0, {a});
  auto top = b.Add(dag, 2, 0, {m});

  DigestSet committed;
  committed.insert(a.digest);
  committed.insert(m.digest);
  Dag::History history = dag.CollectCausalHistory(top.digest, committed);
  ASSERT_EQ(history.ordered.size(), 1u);
  EXPECT_EQ(history.ordered[0], top.digest);

  // A fully-committed anchor yields nothing.
  committed.insert(top.digest);
  EXPECT_TRUE(dag.CollectCausalHistory(top.digest, committed).ordered.empty());
}

TEST(DagTest, CausalHistoryReportsMissingHeaders) {
  Dag dag;
  DagBuilder b;
  auto a = b.Add(dag, 0, 0, {}, /*with_header=*/false);
  auto top = b.Add(dag, 1, 0, {a});
  Dag::History history = dag.CollectCausalHistory(top.digest, {});
  ASSERT_EQ(history.missing.size(), 1u);
  EXPECT_EQ(history.missing[0], a.digest);
  EXPECT_TRUE(history.ordered.empty());  // Nothing ordered while incomplete.
}

TEST(DagTest, GarbageCollectionDropsOldRounds) {
  Dag dag;
  DagBuilder b;
  std::vector<DagBuilder::Node> prev;
  DagBuilder::Node cursor;
  for (Round r = 0; r < 10; ++r) {
    cursor = b.Add(dag, r, 0, prev);
    prev = {cursor};
  }
  EXPECT_EQ(dag.TotalCertificates(), 10u);
  std::vector<Dag::Collected> collected = dag.GarbageCollect(5);
  EXPECT_EQ(collected.size(), 5u);  // Rounds 0..4.
  for (const Dag::Collected& record : collected) {
    EXPECT_NE(record.header, nullptr);  // Evicted records carry their data.
    EXPECT_EQ(record.cert->header_digest, record.digest);
  }
  EXPECT_EQ(dag.gc_round(), 5u);
  EXPECT_EQ(dag.TotalCertificates(), 5u);
  EXPECT_EQ(dag.GetCert(4, 0), nullptr);
  EXPECT_NE(dag.GetCert(5, 0), nullptr);

  // History collection stops at the horizon instead of reporting missing.
  Dag::History history = dag.CollectCausalHistory(cursor.digest, {});
  EXPECT_TRUE(history.missing.empty());
  EXPECT_EQ(history.ordered.size(), 5u);

  // Certificates below the horizon are ignored on arrival.
  Certificate stale;
  stale.header_digest = Sha256::Hash("stale");
  stale.round = 2;
  stale.author = 3;
  EXPECT_TRUE(dag.AddCertificate(stale));
  EXPECT_EQ(dag.GetCert(2, 3), nullptr);

  // GC never moves backwards.
  EXPECT_TRUE(dag.GarbageCollect(3).empty());
  EXPECT_EQ(dag.gc_round(), 5u);
}

TEST(DagTest, BoundedMemoryUnderContinuousGc) {
  // Simulates the paper's §3.3 claim: with a moving horizon, the DAG holds
  // O(gc_depth * n) state regardless of run length.
  Dag dag;
  DagBuilder b;
  const Round kDepth = 5;
  std::vector<DagBuilder::Node> prev;
  for (Round r = 0; r < 200; ++r) {
    std::vector<DagBuilder::Node> current;
    for (ValidatorId v = 0; v < 4; ++v) {
      current.push_back(b.Add(dag, r, v, prev));
    }
    prev = current;
    if (r > kDepth) {
      dag.GarbageCollect(r - kDepth);
    }
  }
  EXPECT_LE(dag.TotalCertificates(), (kDepth + 1) * 4u);
  EXPECT_LE(dag.TotalHeaders(), (kDepth + 1) * 4u);
}

// The support test done the slow way: certified blocks of the next round
// whose stored headers cite `digest` (what DagCommitter::DirectSupport
// scanned for before the Dag kept the count).
uint32_t Recount(const Dag& dag, const Certificate& cert) {
  uint32_t citers = 0;
  for (const auto& [author, citer] : dag.CertsAt(cert.round + 1)) {
    std::shared_ptr<const BlockHeader> header = dag.GetHeader(citer->header_digest);
    if (header == nullptr) {
      continue;
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == cert.header_digest) {
        ++citers;
        break;
      }
    }
  }
  return citers;
}

// Checks Citers() against the recount for every certificate in the DAG;
// returns how many certificates had support.
size_t ExpectSupportMatchesRecount(const Dag& dag) {
  size_t supported = 0;
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    for (const auto& [author, cert] : dag.CertsAt(round)) {
      const uint32_t expected = Recount(dag, *cert);
      EXPECT_EQ(dag.Citers(cert->header_digest), expected)
          << "round " << round << " author " << author;
      supported += expected > 0 ? 1 : 0;
    }
  }
  return supported;
}

TEST(DagTest, SupportIndexMatchesRecount) {
  constexpr ValidatorId kN = 4;
  constexpr Round kRounds = 12;
  struct Block {
    Certificate cert;
    std::shared_ptr<BlockHeader> header;
  };
  // A DAG where each header cites a random subset of the previous round,
  // sometimes a block two rounds back (never support), and sometimes the
  // same parent twice (counted once). Round 5, author 2 equivocates: a
  // second, conflicting certified block for the same slot.
  auto build = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<Block>> rounds;
    std::vector<Block> blocks;
    for (Round r = 0; r < kRounds; ++r) {
      std::vector<Block> current;
      const uint32_t copies_of_2 = r == 5 ? 2 : 1;
      for (ValidatorId v = 0; v < kN; ++v) {
        for (uint32_t copy = 0; copy < (v == 2 ? copies_of_2 : 1); ++copy) {
          auto header = std::make_shared<BlockHeader>();
          header->author = v;
          header->round = r;
          header->batches.push_back(BatchRef{Sha256::Hash(std::to_string(copy)), 0});
          if (r > 0) {
            for (const Block& p : rounds[r - 1]) {
              if (rng.NextBelow(3) != 0) {
                header->parents.push_back(p.cert);
              }
            }
            if (!header->parents.empty() && rng.NextBelow(4) == 0) {
              header->parents.push_back(header->parents.front());
            }
            if (r > 1 && rng.NextBelow(4) == 0) {
              header->parents.push_back(rounds[r - 2][rng.NextBelow(rounds[r - 2].size())].cert);
            }
          }
          Block b;
          b.header = header;
          b.cert.header_digest = header->ComputeDigest();
          b.cert.round = r;
          b.cert.author = v;
          current.push_back(b);
          blocks.push_back(b);
        }
      }
      rounds.push_back(current);
    }
    return blocks;
  };

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<Block> blocks = build(seed);
    // Every certificate and header arrives once or twice, in a shuffled
    // order: cert-before-header, header-before-cert and duplicates all
    // occur, and which of the two conflicting certificates wins varies.
    std::vector<std::function<void(Dag&)>> events;
    for (const Block& b : blocks) {
      for (int copy = 0; copy < 2; ++copy) {
        events.push_back([b](Dag& dag) { dag.AddCertificate(b.cert); });
        events.push_back([b](Dag& dag) { dag.AddHeader(b.header, b.cert.header_digest); });
      }
    }
    Rng rng(seed);
    for (size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[rng.NextBelow(i)]);
    }
    Dag dag;
    for (size_t i = 0; i < events.size(); ++i) {
      events[i](dag);
      if (i % 16 == 0) {
        ExpectSupportMatchesRecount(dag);
      }
    }
    EXPECT_GT(ExpectSupportMatchesRecount(dag), kRounds) << "seed " << seed;

    // GC drops the counts below the horizon and keeps the rest exact; late
    // arrivals below it change nothing.
    std::vector<Digest> collected;
    for (Round round = 0; round < 6; ++round) {
      for (const auto& [author, cert] : dag.CertsAt(round)) {
        collected.push_back(cert->header_digest);
      }
    }
    dag.GarbageCollect(6);
    for (const Digest& digest : collected) {
      EXPECT_EQ(dag.Citers(digest), 0u);
    }
    for (const Block& b : blocks) {
      dag.AddCertificate(b.cert);
      dag.AddHeader(b.header, b.cert.header_digest);
    }
    ExpectSupportMatchesRecount(dag);

    // Primary::Recover's direct insert: GC horizon first, then every header,
    // then the certificates in (round, author) order, with no hooks.
    Dag recovered;
    recovered.GarbageCollect(3);
    for (const Block& b : blocks) {
      recovered.AddHeader(b.header, b.cert.header_digest);
    }
    for (const Block& b : blocks) {
      recovered.AddCertificate(b.cert);
    }
    EXPECT_GT(ExpectSupportMatchesRecount(recovered), kRounds / 2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nt
