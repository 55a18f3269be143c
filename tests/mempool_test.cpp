// The §2.1 mempool abstraction: write / valid / read / read_causal and the
// properties the paper states for them, exercised on live clusters.
#include "src/narwhal/mempool.h"

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

ClusterConfig TuskConfig(uint64_t seed) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = seed;
  return config;
}

// A batch's explicit transactions, copied out of its buffer.
std::vector<Bytes> TxsOf(const Batch& batch) {
  std::vector<Bytes> out;
  for (const Batch::TxView tx : batch.txs()) {
    out.emplace_back(tx.begin(), tx.end());
  }
  return out;
}

std::vector<Bytes> MakeBlock(int tag, size_t txs = 5) {
  std::vector<Bytes> block;
  for (size_t i = 0; i < txs; ++i) {
    block.push_back(Bytes{static_cast<uint8_t>(tag), static_cast<uint8_t>(i), 7});
  }
  return block;
}

TEST(MempoolTest, WriteBecomesCertified) {
  Cluster cluster(TuskConfig(1));
  cluster.Start();
  Mempool pool = cluster.MempoolOf(0);

  Digest d = pool.Write(MakeBlock(1));
  EXPECT_FALSE(pool.IsWriteCertified(d));  // Not yet: needs a round trip.
  cluster.scheduler().RunUntil(Seconds(5));
  EXPECT_TRUE(pool.IsWriteCertified(d));

  auto cert = pool.CertificateFor(d);
  ASSERT_TRUE(cert.has_value());
  // valid(d, c(d)) holds for the real certificate, checked by validator 0's
  // mempool through its own cache...
  auto verifier = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  const VerifiedCertCache& cache = pool.cert_cache();
  const uint64_t lookups = cache.stats().hits + cache.stats().misses;
  EXPECT_TRUE(pool.Valid(cluster.committee(), *verifier, *cert));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, lookups + 1);
  // ...and fails for a tampered one.
  std::vector<VoteList::Entry> votes = cert->votes.Entries();
  votes[0].second[0] ^= 1;
  Certificate forged = *cert;
  forged.votes = VoteList(votes);
  EXPECT_FALSE(pool.Valid(cluster.committee(), *verifier, forged));
}

// A batch re-proposed after GC re-injection is referenced by two certified
// headers. CertificateFor answers with the earlier one, whatever the
// headers' digests: the DAG is searched in (round, author) order.
TEST(MempoolTest, BatchInTwoHeadersMapsToTheLowerRoundCertificate) {
  Cluster cluster(TuskConfig(3));
  Dag& dag = cluster.primary(0)->mutable_dag();
  const Digest batch = Sha256::Hash(std::string_view("re-proposed batch"));
  auto make = [&](Round round, ValidatorId author, uint64_t salt) {
    auto header = std::make_shared<BlockHeader>();
    header->author = author;
    header->round = round;
    header->batches.push_back(BatchRef{batch, 0, salt, 0});
    return std::shared_ptr<const BlockHeader>(header);
  };
  auto stage = [&](const std::shared_ptr<const BlockHeader>& header) {
    Certificate cert;
    cert.header_digest = header->ComputeDigest();
    cert.round = header->round;
    cert.author = header->author;
    EXPECT_TRUE(dag.AddCertificate(cert));
    dag.AddHeader(header, cert.header_digest);
    return cert;
  };
  // Pick the later header so that its digest sorts first: a search in
  // digest order would return it.
  std::shared_ptr<const BlockHeader> early = make(3, 2, 0);
  std::shared_ptr<const BlockHeader> late;
  for (uint64_t salt = 0; late == nullptr; ++salt) {
    std::shared_ptr<const BlockHeader> candidate = make(7, 1, salt);
    if (DigestLess{}(candidate->ComputeDigest(), early->ComputeDigest())) {
      late = candidate;
    }
  }
  const Certificate early_cert = stage(early);
  stage(late);
  std::optional<Certificate> found = cluster.MempoolOf(0).CertificateFor(batch);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->header_digest, early_cert.header_digest);
  EXPECT_EQ(found->round, 3u);
}

TEST(MempoolTest, ReadReturnsWrittenBlock) {
  Cluster cluster(TuskConfig(2));
  cluster.Start();
  Mempool pool = cluster.MempoolOf(0);
  std::vector<Bytes> block = MakeBlock(9, 3);
  Digest d = pool.Write(block);
  cluster.scheduler().RunUntil(Seconds(5));

  // Integrity at the writer...
  auto batch = pool.Read(d);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(TxsOf(*batch), block);

  // ...and Block-Availability: every other validator can read it too, and
  // reads agree (the dissemination layer replicated it).
  for (ValidatorId v = 1; v < 4; ++v) {
    auto replica = cluster.MempoolOf(v).Read(d);
    ASSERT_NE(replica, nullptr) << "validator " << v;
    EXPECT_EQ(TxsOf(*replica), block);
    EXPECT_EQ(replica->ComputeDigest(), d);
  }
}

TEST(MempoolTest, ReadUnknownDigestIsNull) {
  Cluster cluster(TuskConfig(3));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(1));
  Digest bogus = Sha256::Hash("never written");
  EXPECT_EQ(cluster.MempoolOf(0).Read(bogus), nullptr);
  EXPECT_FALSE(cluster.MempoolOf(0).IsWriteCertified(bogus));
}

TEST(MempoolTest, ReadCausalContainment) {
  // Containment (§2.1): for b' in read_causal(b), read_causal(b') is a
  // subset of read_causal(b).
  Cluster cluster(TuskConfig(4));
  cluster.Start();
  Mempool pool = cluster.MempoolOf(0);
  pool.Write(MakeBlock(1));
  cluster.scheduler().RunUntil(Seconds(3));
  pool.Write(MakeBlock(2));
  cluster.scheduler().RunUntil(Seconds(8));

  const Dag& dag = cluster.primary(0)->dag();
  // Pick the newest header with a complete local history as b.
  Digest anchor{};
  Round best = 0;
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    for (const auto& [author, cert] : dag.CertsAt(round)) {
      if (round >= best && pool.ReadCausal(cert->header_digest).size() > 3) {
        best = round;
        anchor = cert->header_digest;
      }
    }
  }
  std::vector<Digest> outer = pool.ReadCausal(anchor);
  ASSERT_GT(outer.size(), 3u);
  std::set<Digest> outer_set(outer.begin(), outer.end());
  for (const Digest& inner_anchor : outer) {
    for (const Digest& d : pool.ReadCausal(inner_anchor)) {
      EXPECT_TRUE(outer_set.count(d) != 0) << "containment violated";
    }
  }
}

TEST(MempoolTest, TwoThirdsCausality) {
  // 2/3-Causality (§2.1): read_causal of a fresh write returns at least 2/3
  // of the blocks successfully written before it. The property is relative
  // to the garbage-collection horizon, so keep all rounds for this test.
  ClusterConfig config = TuskConfig(5);
  config.narwhal.gc_depth = 100000;
  Cluster cluster(config);
  cluster.Start();
  Mempool pool = cluster.MempoolOf(0);

  std::vector<Digest> written;
  for (int i = 0; i < 10; ++i) {
    written.push_back(pool.Write(MakeBlock(i)));
    cluster.scheduler().RunUntil(Seconds(2 + 2 * i));
    ASSERT_TRUE(pool.IsWriteCertified(written.back())) << "write " << i;
  }
  Digest last = pool.Write(MakeBlock(99));
  cluster.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(pool.IsWriteCertified(last));

  // Find the header containing the last batch and take its causal history.
  auto cert = pool.CertificateFor(last);
  ASSERT_TRUE(cert.has_value());
  std::vector<Digest> history = pool.ReadCausal(cert->header_digest);
  ASSERT_FALSE(history.empty());

  // Count previously-written batches covered by that history.
  const Dag& dag = cluster.primary(0)->dag();
  std::set<Digest> covered_batches;
  for (const Digest& header_digest : history) {
    auto header = dag.GetHeader(header_digest);
    ASSERT_NE(header, nullptr);
    for (const BatchRef& ref : header->batches) {
      covered_batches.insert(ref.digest);
    }
  }
  size_t covered = 0;
  for (const Digest& d : written) {
    if (covered_batches.count(d) != 0) {
      ++covered;
    }
  }
  EXPECT_GE(covered * 3, written.size() * 2) << "2/3-causality violated";
}

}  // namespace
}  // namespace nt
