// Protocol data types: canonical encoding round trips, digest stability,
// certificate/vote validation, and wire-size accounting.
#include "src/types/types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/exec/state_machine.h"
#include "src/narwhal/primary.h"
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
    Bytes preimage = Certificate::VotePreimage(digest, round, author);
    std::vector<VoteList::Entry> votes;
    for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
      votes.emplace_back(v, signers[v]->Sign(preimage));
    }
    return Certificate(digest, round, author, votes);
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
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes.pop_back();  // 2 < 2f+1 = 3.
  cert.votes = VoteList(votes);
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsDuplicateVoter) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes[2] = votes[0];  // Same voter twice.
  cert.votes = VoteList(votes);
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsForgedSignature) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes[1].second[0] ^= 1;
  cert.votes = VoteList(votes);
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
}

TEST_F(TypesFixture, CertificateRejectsUnknownVoter) {
  Digest d = Sha256::Hash("header");
  Certificate cert = Certify(d, 5, 1);
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes[1].first = 77;  // Not in the committee.
  cert.votes = VoteList(votes);
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
  EncodeWire(w, cert);
  Reader r(w.bytes());
  auto decoded = DecodeWire<Certificate>(r);
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
  std::vector<VoteList::Entry> votes = parent_a.votes.Entries();
  votes.erase(votes.begin());
  votes.emplace_back(3, signers[3]->Sign(Certificate::VotePreimage(parent_digest, 1, 0)));
  const Certificate parent_b(parent_digest, 1, 0, votes);

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
  EncodeWire(w, h);
  Reader r(w.bytes());
  auto decoded = DecodeWire<BlockHeader>(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->ComputeDigest(), h.ComputeDigest());
  EXPECT_EQ(decoded->TotalTxs(), 100u);
  EXPECT_EQ(decoded->TotalPayloadBytes(), 51200u);
  EXPECT_EQ(decoded->parents.size(), 3u);
}

// The certificate and header bytes that messages, header digests and the
// primary's 'C' record are built from, pinned like the batch encodings
// above: a change to how a certificate is held must not move them.
TEST_F(TypesFixture, CertificateAndHeaderEncodingsArePinned) {
  const Certificate a = Certify(Sha256::Hash("pinned-parent-a"), 4, 0);
  const Certificate b = Certify(Sha256::Hash("pinned-parent-b"), 4, 2);
  const std::string cert_hex =
      "3e10928291071db6664818d65d2130b9b3bfe02ab63248c0cc688658206fd2c8"
      "0400000000000000000000000300000000000000ca3e73d8850bd2bb0378da7f"
      "59a2b9b09ee32e73f118fcde82a0867fcdd1d7f85a37af4b178cd83c770b83b8"
      "1a4952915f9f32ec8a37370d8c70d922352fcdd701000000e60b6266057ed88b"
      "c49877a1b11a43396f920f02fd9e760e69964ff0063c898fd01a291372d6ab9b"
      "777653d5f3da0a6bf84a1e7294778aaecfce058bd58b66e00200000098d8a4f0"
      "f2b8fa9d38607b8162076f13472b2fd80c96b6f4b41509486d838165fca863b0"
      "a9843355165c7eb5f12a48a2ca55443ec04a6de75703649d3feba7b1";
  Writer cert_bytes;
  EncodeWire(cert_bytes, a);
  EXPECT_EQ(ToHex(cert_bytes.bytes()), cert_hex);
  EXPECT_EQ(WireSizeOf(a), 252u);

  BlockHeader header;
  header.author = 1;
  header.round = 5;
  BatchRef ref;
  ref.digest = Sha256::Hash("pinned-batch");
  ref.worker = 1;
  ref.num_txs = 100;
  ref.payload_bytes = 51200;
  header.batches = {ref};
  header.parents = {a, b};
  header.author_sig = signers[1]->Sign(header.ComputeDigest());
  Writer header_bytes;
  EncodeWire(header_bytes, header);
  EXPECT_EQ(ToHex(header_bytes.bytes()),
            "01000000050000000000000001000000fa6e3403117d9ca853ada1594f479a24"
            "13f58fa0324ba355b3f80f64d78d91dc01000000640000000000000000c80000"
            "00000000020000003e10928291071db6664818d65d2130b9b3bfe02ab63248c0"
            "cc688658206fd2c80400000000000000000000000300000000000000ca3e73d8"
            "850bd2bb0378da7f59a2b9b09ee32e73f118fcde82a0867fcdd1d7f85a37af4b"
            "178cd83c770b83b81a4952915f9f32ec8a37370d8c70d922352fcdd701000000"
            "e60b6266057ed88bc49877a1b11a43396f920f02fd9e760e69964ff0063c898f"
            "d01a291372d6ab9b777653d5f3da0a6bf84a1e7294778aaecfce058bd58b66e0"
            "0200000098d8a4f0f2b8fa9d38607b8162076f13472b2fd80c96b6f4b4150948"
            "6d838165fca863b0a9843355165c7eb5f12a48a2ca55443ec04a6de75703649d"
            "3feba7b1b854d1ae3fd589d003a3b161f9d63f63b31b3e54e8901cb14c90d025"
            "5fcdeee304000000000000000200000003000000000000003c65f042b951b4df"
            "578b28e0f16b527daf4afcc5909e4a0bd1b13e0d9f0d246d7ee20fc89a3b2d76"
            "b5eafb6ded3abdc13b2809f984aa8342fc8fd029d38b701b0100000011616770"
            "82f3396371225ae3ced813e5ffa2bfabfd3379fd991c6d35cce36cbd34e53af2"
            "7ad9950d695dc097b21d2cd6fbe443a264cfd12489128047b45217d502000000"
            "f5589977cfff5144552df170964ce67cb3c2c9d808fdb28ef38cb2d61826768d"
            "7237407c0a8b18180bbff08449bec484a88d0da39f53e6fa6dcceea5b9298cf9"
            "fe4fb4e55cba9b8119cbbd340a9936cce03fc9090649348a2e5220dcc1d5f401"
            "cd419f7cb8eaca1488da1f4cfe68d8694814a343f572f96d1fe1dda1ebfe4cf4");
  const Digest digest = header.ComputeDigest();
  EXPECT_EQ(ToHex(digest.data(), digest.size()),
            "66d8f0671f2b9c4eb64c6d7e43dbc63b3e59b15a90d9fbf7b2cce4e1dcfda2ed");
  EXPECT_EQ(WireSizeOf(header), 640u);

  // The value the primary's store holds for `a`: the tag 'C', then the
  // certificate's encoding.
  MemStore store;
  PutRecord(store, CertRecord{a});
  ASSERT_EQ(store.size(), 1u);
  store.ForEach([&](const Digest&, const SharedBytes& value) {
    EXPECT_EQ(ToHex(*value), "43" + cert_hex);
  });
}

// A sealed certificate's copies share its one buffer, which is its 'C'
// value. A field assigned after sealing no longer matches that buffer, so
// the value is sealed afresh from the fields.
TEST_F(TypesFixture, RecordValueFollowsTheFields) {
  const Certificate sealed = Certify(Sha256::Hash("sealed"), 5, 1);
  Certificate copy = sealed;
  EXPECT_EQ(copy.RecordValue(), sealed.RecordValue());
  Writer encoding;
  EncodeWire(encoding, sealed);
  EXPECT_EQ(ToHex(*sealed.RecordValue()), "43" + ToHex(encoding.bytes()));

  copy.round = 6;
  const SharedBytes relabelled = copy.RecordValue();
  EXPECT_NE(relabelled, sealed.RecordValue());
  std::optional<Certificate> decoded = Certificate::Decode(relabelled);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->round, 6u);
  EXPECT_EQ(decoded->votes, sealed.votes);
  EXPECT_EQ(decoded->RecordValue(), relabelled);  // Adopted, not copied.
}

}  // namespace
}  // namespace nt
