// Protocol data types: canonical encoding round trips, digest stability,
// certificate/vote validation, and wire-size accounting.
#include "src/types/types.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/types/cert_cache.h"

namespace nt {
namespace {

struct TypesFixture : ::testing::Test {
  static constexpr uint32_t kN = 4;

  TypesFixture() {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < kN; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(99, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
  }

  Batch MakeBatch() const {
    Batch b;
    b.author = 1;
    b.worker = 2;
    b.seq = 3;
    b.num_txs = 10;
    b.payload_bytes = 5120;
    b.samples = {{7, Millis(100)}, {9, Millis(200)}};
    b.txs = {{1, 2, 3}, {4, 5}};
    return b;
  }

  // Builds a certificate for (digest, round, author) signed by the first
  // 2f+1 validators.
  Certificate Certify(const Digest& digest, Round round, ValidatorId author) const {
    Certificate cert;
    cert.header_digest = digest;
    cert.round = round;
    cert.author = author;
    Bytes preimage = Certificate::VotePreimage(digest, round, author);
    for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
      cert.votes.emplace_back(v, signers[v]->Sign(preimage));
    }
    return cert;
  }

  std::vector<std::unique_ptr<Signer>> signers;
  Committee committee;
  VerifiedCertCache cache;  // The verifying validator's own.
};

TEST_F(TypesFixture, CommitteeThresholds) {
  EXPECT_EQ(committee.size(), 4u);
  EXPECT_EQ(committee.f(), 1u);
  EXPECT_EQ(committee.quorum_threshold(), 3u);
  EXPECT_EQ(committee.validity_threshold(), 2u);
  EXPECT_EQ(committee.IndexOf(signers[2]->public_key()), 2u);
  PublicKey unknown{};
  EXPECT_FALSE(committee.IndexOf(unknown).has_value());
  // Thresholds for other sizes: n=10 -> f=3; n=50 -> f=16.
  EXPECT_EQ(Committee(std::vector<ValidatorInfo>(10)).f(), 3u);
  EXPECT_EQ(Committee(std::vector<ValidatorInfo>(50)).f(), 16u);
}

TEST(CommitteeTest, DistinctMembersBeyondTheInlineBitmap) {
  // 300 validators overflow the 256-bit on-stack bitmap.
  Committee big(std::vector<ValidatorInfo>(300));
  Signature sig{};
  EXPECT_TRUE(big.DistinctMembers({{0, sig}, {255, sig}, {256, sig}, {299, sig}}));
  EXPECT_FALSE(big.DistinctMembers({{0, sig}, {299, sig}, {299, sig}}));
  EXPECT_FALSE(big.DistinctMembers({{0, sig}, {300, sig}}));
  EXPECT_TRUE(big.DistinctMembers({}));
}

TEST_F(TypesFixture, BatchEncodeDecodeRoundTrip) {
  Batch b = MakeBatch();
  Writer w;
  b.Encode(w);
  Reader r(w.bytes());
  auto decoded = Batch::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->ComputeDigest(), b.ComputeDigest());
  EXPECT_EQ(decoded->num_txs, b.num_txs);
  EXPECT_EQ(decoded->samples.size(), 2u);
  EXPECT_EQ(decoded->samples[1].tx_id, 9u);
  EXPECT_EQ(decoded->txs, b.txs);
}

TEST_F(TypesFixture, BatchDigestSensitiveToContent) {
  Batch a = MakeBatch();
  Batch b = MakeBatch();
  b.seq += 1;
  EXPECT_NE(a.ComputeDigest(), b.ComputeDigest());
  Batch c = MakeBatch();
  c.txs[0][0] ^= 1;
  EXPECT_NE(a.ComputeDigest(), c.ComputeDigest());
}

TEST_F(TypesFixture, BatchDecodeRejectsTruncation) {
  Batch b = MakeBatch();
  Writer w;
  b.Encode(w);
  Bytes bytes = w.Take();
  bytes.resize(bytes.size() - 3);
  Reader r(bytes);
  EXPECT_FALSE(Batch::Decode(r).has_value());
}

TEST_F(TypesFixture, CertificateVerifies) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsInsufficientVotes) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  cert.votes.pop_back();  // 2 < 2f+1 = 3.
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsDuplicateVoter) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  cert.votes[2] = cert.votes[0];  // Same voter twice.
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsForgedSignature) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  cert.votes[1].second[0] ^= 1;
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsUnknownVoter) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  cert.votes[1].first = 77;  // Not in the committee.
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateBindsRoundAndAuthor) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  cert.round = 6;  // Signatures were over round 5.
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
  cert.round = 5;
  cert.author = 2;
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateEncodeDecodeRoundTrip) {
  Certificate cert = Certify(Sha256::Hash("x"), 9, 3);
  Writer w;
  cert.Encode(w);
  EXPECT_EQ(w.size(), cert.WireSize());  // Wire accounting matches encoding.
  Reader r(w.bytes());
  auto decoded = Certificate::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(decoded->Verify(committee, *signers[0], &cache));
  EXPECT_EQ(decoded->header_digest, cert.header_digest);
}

TEST_F(TypesFixture, VoteVerifies) {
  Digest d = Sha256::Hash("h");
  Vote vote;
  vote.header_digest = d;
  vote.round = 4;
  vote.author = 2;
  vote.voter = 1;
  vote.sig = signers[1]->Sign(Certificate::VotePreimage(d, 4, 2));
  EXPECT_TRUE(vote.Verify(committee, *signers[0]));
  vote.voter = 0;  // Wrong voter for this signature.
  EXPECT_FALSE(vote.Verify(committee, *signers[0]));
}

TEST_F(TypesFixture, HeaderDigestIgnoresParentVoteSets) {
  // Two headers identical except for which 2f+1 voters assembled a parent
  // certificate must be the same block.
  Digest parent_digest = Sha256::Hash("parent");
  Certificate parent_a = Certify(parent_digest, 1, 0);
  Certificate parent_b = parent_a;
  parent_b.votes.erase(parent_b.votes.begin());
  parent_b.votes.emplace_back(3,
                              signers[3]->Sign(Certificate::VotePreimage(parent_digest, 1, 0)));

  BlockHeader h1;
  h1.author = 2;
  h1.round = 2;
  h1.parents = {parent_a};
  BlockHeader h2 = h1;
  h2.parents = {parent_b};
  EXPECT_EQ(h1.ComputeDigest(), h2.ComputeDigest());
}

TEST_F(TypesFixture, HeaderEncodeDecodeRoundTrip) {
  BlockHeader h;
  h.author = 1;
  h.round = 3;
  BatchRef ref;
  ref.digest = Sha256::Hash("batch");
  ref.worker = 1;
  ref.num_txs = 100;
  ref.payload_bytes = 51200;
  h.batches = {ref};
  h.parents = {Certify(Sha256::Hash("p1"), 2, 0), Certify(Sha256::Hash("p2"), 2, 1),
               Certify(Sha256::Hash("p3"), 2, 2)};
  h.author_sig = signers[1]->Sign(h.ComputeDigest());

  Writer w;
  h.Encode(w);
  EXPECT_EQ(w.size(), h.WireSize());
  Reader r(w.bytes());
  auto decoded = BlockHeader::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->ComputeDigest(), h.ComputeDigest());
  EXPECT_EQ(decoded->TotalTxs(), 100u);
  EXPECT_EQ(decoded->TotalPayloadBytes(), 51200u);
  EXPECT_EQ(decoded->parents.size(), 3u);
}

TEST_F(TypesFixture, VoteWireSizeMatchesEncoding) {
  Vote vote;
  vote.sig = signers[0]->Sign(Bytes{1});
  Writer w;
  vote.Encode(w);
  EXPECT_EQ(w.size(), vote.WireSize());
}

}  // namespace
}  // namespace nt
