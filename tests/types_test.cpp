// Protocol data types: canonical encoding round trips, digest stability,
// certificate/vote validation, and wire-size accounting.
#include "src/types/types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/exec/state_machine.h"
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

  // Ten transactions, two of them explicit, 5120 payload bytes in all.
  static std::shared_ptr<const Batch> MakeBatch(uint64_t seq = 3, Bytes first_tx = {1, 2, 3}) {
    Batch::Builder b(/*author=*/1, /*worker=*/2);
    b.AddLoad(8, 5120 - first_tx.size() - 2);
    b.AddSample({7, Millis(100)});
    b.AddSample({9, Millis(200)});
    b.AddTx(first_tx);
    b.AddTx(Bytes{4, 5});
    return b.Seal(seq);
  }

  // The two batches whose bytes and digests are pinned below. The pins check
  // the canonical encoding, so only these helpers and EncodingHex know how a
  // batch is built and read.
  //
  // An execution batch: two samples, three transactions, the second empty.
  std::shared_ptr<const Batch> PinnedExecBatch() const {
    Batch::Builder b(/*author=*/2, /*worker=*/1);
    b.AddSample({41, Millis(1500)});
    b.AddSample({42, Millis(1750)});
    b.AddTx(ExecTx::Mint("alice", 100).Encode());
    b.AddTx(Bytes{});
    b.AddTx(ExecTx::EncodeTransfer("alice", "bob", 30, 9));
    return b.Seal(/*seq=*/7);
  }

  // A synthetic batch: counted load and samples, no transaction bytes.
  std::shared_ptr<const Batch> PinnedSyntheticBatch() const {
    Batch::Builder b(/*author=*/3, /*worker=*/0);
    b.AddLoad(100, 100 * 512);
    b.AddSample({1000, Millis(20)});
    b.AddSample({1001, Millis(25)});
    return b.Seal(/*seq=*/12);
  }

  static std::string EncodingHex(const Batch& b) { return ToHex(*b.bytes()); }

  static std::string DigestHex(const Batch& b) {
    const Digest d = b.ComputeDigest();
    return ToHex(d.data(), d.size());
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
  const auto b = MakeBatch();
  EXPECT_EQ(b->num_txs(), 10u);
  EXPECT_EQ(b->payload_bytes(), 5120u);
  Reader r(*b->bytes());
  auto decoded = Batch::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->ComputeDigest(), b->ComputeDigest());
  EXPECT_EQ(decoded->author(), 1u);
  EXPECT_EQ(decoded->worker(), 2u);
  EXPECT_EQ(decoded->seq(), 3u);
  EXPECT_EQ(decoded->num_txs(), b->num_txs());
  EXPECT_EQ(decoded->payload_bytes(), b->payload_bytes());
  EXPECT_EQ(decoded->samples().size(), 2u);
  EXPECT_EQ(decoded->samples()[1].tx_id, 9u);
  ASSERT_EQ(decoded->txs().size(), 2u);
  EXPECT_TRUE(std::ranges::equal(decoded->txs()[0], Bytes{1, 2, 3}));
  EXPECT_TRUE(std::ranges::equal(decoded->txs()[1], Bytes{4, 5}));
}

// A batch is one buffer: Decode adopts the buffer it is given, and every
// transaction is a view into it, so a sealed batch allocates nothing per
// transaction.
TEST_F(TypesFixture, BatchTransactionsAreViewsIntoItsBuffer) {
  const auto sealed = MakeBatch();
  auto adopted = Batch::Decode(sealed->bytes());
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->bytes(), sealed->bytes());
  for (const Batch* b : {sealed.get(), static_cast<const Batch*>(&*adopted)}) {
    const uint8_t* begin = b->bytes()->data();
    const uint8_t* end = begin + b->bytes()->size();
    for (const Batch::TxView tx : b->txs()) {
      EXPECT_GE(tx.data(), begin);
      EXPECT_LE(tx.data() + tx.size(), end);
    }
  }
  // A copy shares the buffer, so its views stay valid after the original
  // and every other holder of the buffer are gone.
  auto original = Batch::Decode(std::make_shared<const Bytes>(*sealed->bytes()));
  ASSERT_TRUE(original.has_value());
  Batch copy = *original;
  original.reset();
  EXPECT_EQ(copy.bytes().use_count(), 1);
  EXPECT_TRUE(std::ranges::equal(copy.txs()[1], Bytes{4, 5}));
}

// Adopting stored bytes is strict: exactly one well-formed encoding, whose
// aggregates cover its explicit transactions.
TEST_F(TypesFixture, BatchDecodeIsStrict) {
  const Bytes good = *MakeBatch()->bytes();
  EXPECT_TRUE(Batch::Decode(std::make_shared<const Bytes>(good)).has_value());
  EXPECT_FALSE(Batch::Decode(SharedBytes()).has_value());

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(Batch::Decode(std::make_shared<const Bytes>(trailing)).has_value());

  // num_txs (offset 16) below the two explicit transactions.
  Bytes few_txs = good;
  few_txs[16] = 1;
  EXPECT_FALSE(Batch::Decode(std::make_shared<const Bytes>(few_txs)).has_value());

  // payload_bytes (offset 24) below the explicit transactions' 5 bytes.
  Bytes few_bytes = good;
  few_bytes[24] = 4;
  few_bytes[25] = 0;
  EXPECT_FALSE(Batch::Decode(std::make_shared<const Bytes>(few_bytes)).has_value());
}

// The canonical batch encoding and its digest, byte for byte: header
// digests, signatures and every golden event hash rest on them.
TEST_F(TypesFixture, BatchEncodingAndDigestArePinned) {
  const auto exec = PinnedExecBatch();
  EXPECT_EQ(EncodingHex(*exec),
            "0200000001000000070000000000000003000000000000005500000000000000"
            "02000000290000000000000060e31600000000002a00000000000000f0b31a00"
            "00000000030000002500000007000000657865632d74780205000000616c6963"
            "6500000000000000006400000000000000000000003000000007000000657865"
            "632d74780305000000616c69636503000000626f620800000009000000000000"
            "001e00000000000000");
  EXPECT_EQ(DigestHex(*exec),
            "986a5dc0f78137aedfc76b04e35a99e506e3fcd7f641e60d9105ecfe899704b7");

  const auto synthetic = PinnedSyntheticBatch();
  EXPECT_EQ(EncodingHex(*synthetic),
            "03000000000000000c00000000000000640000000000000000c8000000000000"
            "02000000e803000000000000204e000000000000e903000000000000a8610000"
            "0000000000000000");
  EXPECT_EQ(DigestHex(*synthetic),
            "1cf8af4082ca38a6b374f2ae653b2debeb473fe358c5a719d9b47dc73e622386");

  // The pinned bytes decode back to the same batch.
  for (const auto& batch : {exec, synthetic}) {
    const Bytes bytes = *FromHex(EncodingHex(*batch));
    Reader r(bytes);
    auto decoded = Batch::Decode(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(DigestHex(*decoded), DigestHex(*batch));
  }
}

TEST_F(TypesFixture, BatchDigestSensitiveToContent) {
  const auto a = MakeBatch();
  EXPECT_EQ(a->ComputeDigest(), MakeBatch()->ComputeDigest());
  EXPECT_NE(a->ComputeDigest(), MakeBatch(/*seq=*/4)->ComputeDigest());
  EXPECT_NE(a->ComputeDigest(), MakeBatch(/*seq=*/3, /*first_tx=*/{0, 2, 3})->ComputeDigest());
}

TEST_F(TypesFixture, BatchDecodeRejectsTruncation) {
  Bytes bytes = *MakeBatch()->bytes();
  bytes.resize(bytes.size() - 3);
  Reader r(bytes);
  EXPECT_FALSE(Batch::Decode(r).has_value());
  EXPECT_FALSE(Batch::Decode(std::make_shared<const Bytes>(bytes)).has_value());
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
