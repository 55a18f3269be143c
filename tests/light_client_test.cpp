// Light-client inclusion proofs (§8.4): a committee-keys-only verifier
// accepts genuine proofs built from a live cluster and rejects every
// tampered link in the chain of custody.
#include "src/narwhal/light_client.h"

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

struct LightClientFixture : ::testing::Test {
  LightClientFixture() {
    ClusterConfig config;
    config.system = SystemKind::kTusk;
    config.num_validators = 4;
    config.seed = 66;
    cluster = std::make_unique<Cluster>(config);
    cluster->Start();
    tx = Bytes{0xde, 0xad, 0xbe, 0xef};
    cluster->worker(1, 0)->SubmitBlock({tx, {0x01}, {0x02}});
    cluster->scheduler().RunUntil(Seconds(5));
    verifier = MakeSigner(SignerKind::kFast, Sha256::Hash("light-client-throwaway"));
  }

  std::optional<InclusionProof> Build(ValidatorId v) {
    return BuildInclusionProof(*cluster->primary(v), *cluster->worker(v, 0), tx);
  }

  std::unique_ptr<Cluster> cluster;
  Bytes tx;
  std::unique_ptr<Signer> verifier;
};

TEST_F(LightClientFixture, GenuineProofVerifies) {
  auto proof = Build(1);
  ASSERT_TRUE(proof.has_value());
  LightClient client(cluster->committee(), verifier.get());
  auto proven = client.VerifyInclusion(*proof);
  ASSERT_TRUE(proven.has_value());
  EXPECT_EQ(*proven, tx);
  EXPECT_EQ(client.verified(), 1u);
}

TEST_F(LightClientFixture, ProofBuildableFromAnyValidator) {
  // Dissemination replicated the batch: every validator can serve a proof,
  // and an unrelated transaction yields none.
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_TRUE(Build(v).has_value()) << "validator " << v;
  }
  EXPECT_FALSE(
      BuildInclusionProof(*cluster->primary(0), *cluster->worker(0, 0), Bytes{0x99}).has_value());
}

TEST_F(LightClientFixture, ProofSurvivesSerialization) {
  auto proof = Build(1);
  ASSERT_TRUE(proof.has_value());
  Writer w;
  proof->Encode(w);
  EXPECT_EQ(w.size(), proof->WireSize());
  Reader r(w.bytes());
  auto decoded = InclusionProof::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.AtEnd());
  LightClient client(cluster->committee(), verifier.get());
  EXPECT_TRUE(client.VerifyInclusion(*decoded).has_value());
}

TEST_F(LightClientFixture, EveryTamperedLinkRejected) {
  auto proof = Build(1);
  ASSERT_TRUE(proof.has_value());
  LightClient client(cluster->committee(), verifier.get());

  {  // Forged certificate signature.
    InclusionProof bad = *proof;
    std::vector<VoteList::Entry> votes = bad.certificate.votes.Entries();
    votes[0].second[0] ^= 1;
    bad.certificate.votes = VoteList(votes);
    EXPECT_FALSE(client.VerifyInclusion(bad).has_value());
  }
  {  // Certificate/header round mismatch.
    InclusionProof bad = *proof;
    bad.certificate.round ^= 1;
    EXPECT_FALSE(client.VerifyInclusion(bad).has_value());
  }
  {  // Substituted header (content no longer hashes to the certified digest).
    InclusionProof bad = *proof;
    auto header = std::make_shared<BlockHeader>(*proof->header);
    header->round += 1;
    bad.header = header;
    EXPECT_FALSE(client.VerifyInclusion(bad).has_value());
  }
  {  // Substituted batch (not referenced by the header).
    InclusionProof bad = *proof;
    Bytes bytes = *proof->batch->bytes();
    bytes[proof->batch->txs()[bad.tx_index].data() - proof->batch->bytes()->data()] ^= 1;
    auto batch = Batch::Decode(std::make_shared<const Bytes>(std::move(bytes)));
    ASSERT_TRUE(batch.has_value());
    bad.batch = std::make_shared<const Batch>(std::move(*batch));
    EXPECT_FALSE(client.VerifyInclusion(bad).has_value());
  }
  {  // Out-of-range transaction index.
    InclusionProof bad = *proof;
    bad.tx_index = 1000;
    EXPECT_FALSE(client.VerifyInclusion(bad).has_value());
  }
  EXPECT_EQ(client.rejected(), 5u);
  // The untampered proof still verifies.
  EXPECT_TRUE(client.VerifyInclusion(*proof).has_value());
}

}  // namespace
}  // namespace nt
