// Signer abstraction: both schemes must agree on the contract (sign/verify
// round trip, cross-key rejection, tamper rejection, deterministic keys).
#include "src/crypto/signer.h"

#include <gtest/gtest.h>

namespace nt {
namespace {

class SignerContractTest : public ::testing::TestWithParam<SignerKind> {};

TEST_P(SignerContractTest, SignVerifyRoundTrip) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(1, 0));
  Bytes msg = {1, 2, 3};
  Signature sig = signer->Sign(msg);
  EXPECT_TRUE(signer->Verify(signer->public_key(), msg, sig));
}

TEST_P(SignerContractTest, CrossValidatorVerify) {
  auto alice = MakeSigner(GetParam(), DeriveSeed(1, 0));
  auto bob = MakeSigner(GetParam(), DeriveSeed(1, 1));
  Bytes msg = {42};
  Signature sig = alice->Sign(msg);
  // Bob can verify Alice's signature against Alice's key...
  EXPECT_TRUE(bob->Verify(alice->public_key(), msg, sig));
  // ...but it does not verify under Bob's key.
  EXPECT_FALSE(bob->Verify(bob->public_key(), msg, sig));
}

TEST_P(SignerContractTest, TamperRejected) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(2, 7));
  Bytes msg = {5, 5, 5};
  Signature sig = signer->Sign(msg);
  Signature bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(signer->Verify(signer->public_key(), msg, bad));
  Bytes other = {5, 5, 6};
  EXPECT_FALSE(signer->Verify(signer->public_key(), other, sig));
}

TEST_P(SignerContractTest, DeterministicKeyDerivation) {
  auto a = MakeSigner(GetParam(), DeriveSeed(3, 4));
  auto b = MakeSigner(GetParam(), DeriveSeed(3, 4));
  EXPECT_EQ(a->public_key(), b->public_key());
  auto c = MakeSigner(GetParam(), DeriveSeed(3, 5));
  EXPECT_NE(a->public_key(), c->public_key());
  auto d = MakeSigner(GetParam(), DeriveSeed(4, 4));
  EXPECT_NE(a->public_key(), d->public_key());
}

TEST_P(SignerContractTest, DigestSigningOverload) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(6, 0));
  Digest d = Sha256::Hash("payload");
  Signature sig = signer->Sign(d);
  EXPECT_TRUE(signer->Verify(signer->public_key(), d, sig));
  Digest other = Sha256::Hash("payload2");
  EXPECT_FALSE(signer->Verify(signer->public_key(), other, sig));
}

TEST_P(SignerContractTest, VerifyBatchMatchesIndividualVerify) {
  // The batch kernel (true multi-scalar batching for Ed25519, a loop for
  // FastSigner) must agree bit-for-bit with per-item Verify.
  auto verifier = MakeSigner(GetParam(), DeriveSeed(11, 0));
  std::vector<std::unique_ptr<Signer>> signers;
  for (uint64_t i = 0; i < 8; ++i) {
    signers.push_back(MakeSigner(GetParam(), DeriveSeed(11, i)));
  }

  // Items borrow their messages, so every buffer is built before the first
  // item points into it.
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (size_t i = 0; i < 24; ++i) {
    const Signer& s = *signers[i % signers.size()];
    Bytes msg(i + 1, static_cast<uint8_t>(i));
    Signature sig = s.Sign(msg);
    if (i % 5 == 2) {
      sig[i % 64] ^= 0x40;  // Corrupt some.
    }
    if (i % 7 == 3) {
      msg.push_back(0);  // Sign/verify mismatch on others.
    }
    msgs.push_back(msg);
    sigs.push_back(sig);
  }
  // Then the certificate pattern: eight votes over one shared preimage, one
  // of them with a corrupted signature.
  const Bytes preimage = {9, 8, 7, 6};
  for (size_t i = 0; i < signers.size(); ++i) {
    Signature sig = signers[i]->Sign(preimage);
    if (i == 5) {
      sig[3] ^= 1;
    }
    sigs.push_back(sig);
  }

  std::vector<BatchItem> items;
  for (size_t i = 0; i < sigs.size(); ++i) {
    const Signer& s = *signers[i % signers.size()];
    const Bytes& msg = i < msgs.size() ? msgs[i] : preimage;
    items.push_back({s.public_key(), msg.data(), msg.size(), sigs[i]});
  }
  std::vector<bool> ok = verifier->VerifyBatch(items);
  ASSERT_EQ(ok.size(), items.size());
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], verifier->Verify(items[i].pk, items[i].msg, items[i].len, items[i].sig))
        << "item " << i;
  }
  EXPECT_FALSE(ok[msgs.size() + 5]);  // The corrupted vote over the shared preimage...
  EXPECT_TRUE(ok[msgs.size() + 4]);   // ...fails alone.

  // An empty batch is an empty verdict.
  EXPECT_TRUE(verifier->VerifyBatch({}).empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignerContractTest,
                         ::testing::Values(SignerKind::kEd25519, SignerKind::kFast),
                         [](const ::testing::TestParamInfo<SignerKind>& param_info) {
                           return param_info.param == SignerKind::kEd25519 ? "Ed25519" : "Fast";
                         });

TEST(FastSignerTest, UnknownKeyFailsVerification) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(9, 0));
  PublicKey unknown{};
  unknown[0] = 0xff;
  Bytes msg = {1};
  EXPECT_FALSE(signer->Verify(unknown, msg, signer->Sign(msg)));
}

TEST(FastSignerTest, WireSizesMatchEd25519) {
  auto fast = MakeSigner(SignerKind::kFast, DeriveSeed(1, 1));
  auto ed = MakeSigner(SignerKind::kEd25519, DeriveSeed(1, 1));
  EXPECT_EQ(fast->public_key().size(), ed->public_key().size());
  Bytes msg = {3};
  EXPECT_EQ(fast->Sign(msg).size(), ed->Sign(msg).size());
}

}  // namespace
}  // namespace nt
