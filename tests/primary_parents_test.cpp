// Parent intake and certificate sharing on one hand-driven n=4 primary.
//
// A header's parents are matched against the primary's Dag by digest: a held
// parent costs one probe and its vote list is not read, a held digest under
// another round or author rejects the header, and only unknown parents are
// verified, once, with one batched flush — whether the header came to be
// voted on or as a sync reply. Every certificate the Dag adds was verified by
// this validator, once: a certificate the primary forms from votes it checked
// is not checked again. The Dag keeps the certificate where it arrived:
// inside the header that carried it as a parent, or inside the broadcast
// message.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/crypto/hash.h"
#include "src/narwhal/primary.h"
#include "src/net/faults.h"
#include "src/net/latency.h"

namespace nt {
namespace {

struct NullNode : NetNode {
  void OnMessage(uint32_t, const MessagePtr&) override {}
};

class ParentHarness {
 public:
  static constexpr uint32_t kN = 4;  // f = 1, quorum 3.

  ParentHarness() : latency_(Millis(1)) {
    network_ = std::make_unique<Network>(&scheduler_, &latency_, &faults_, NetworkConfig{}, 1);
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < kN; ++v) {
      signers_.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(11, v)));
      infos.push_back(ValidatorInfo{signers_.back()->public_key(), 0});
    }
    committee_ = Committee(std::move(infos));
    const uint32_t sink_id = network_->AddNode(&sink_, 0, network_->NewMachine());
    topology_.primary_of.assign(kN, sink_id);
    topology_.worker_of.assign(kN, {sink_id});
    primary_ = std::make_unique<Primary>(0, committee_, NarwhalConfig{}, network_.get(),
                                         &topology_, signers_[0].get());
  }

  // A signed header by `author` at `round` citing `parents`.
  std::shared_ptr<const BlockHeader> MakeHeader(ValidatorId author, Round round,
                                                std::vector<Certificate> parents) const {
    auto header = std::make_shared<BlockHeader>();
    header->author = author;
    header->round = round;
    header->parents = std::move(parents);
    header->author_sig = signers_[author]->Sign(header->ComputeDigest());
    return header;
  }

  // A certificate over `header_digest` as (round, author), voted by 2f+1.
  Certificate Certify(const Digest& header_digest, Round round, ValidatorId author) const {
    const Bytes preimage = Certificate::VotePreimage(header_digest, round, author);
    std::vector<VoteList::Entry> votes;
    for (ValidatorId v = 1; v <= committee_.quorum_threshold(); ++v) {
      votes.emplace_back(v, signers_[v]->Sign(preimage));
    }
    return Certificate(header_digest, round, author, votes);
  }

  // A certified round-0 block of every validator.
  std::vector<Certificate> Genesis() const {
    std::vector<Certificate> certs;
    for (ValidatorId v = 0; v < kN; ++v) {
      certs.push_back(Certify(MakeHeader(v, 0, {})->ComputeDigest(), 0, v));
    }
    return certs;
  }

  // A certified block of every validator at `round`, each citing `parents`.
  std::vector<Certificate> NextRound(Round round, const std::vector<Certificate>& parents) const {
    std::vector<Certificate> certs;
    for (ValidatorId v = 0; v < kN; ++v) {
      certs.push_back(Certify(MakeHeader(v, round, parents)->ComputeDigest(), round, v));
    }
    return certs;
  }

  // Delivers `header` to the primary; returns its message.
  std::shared_ptr<const MsgHeader> Deliver(std::shared_ptr<const BlockHeader> header) {
    auto msg = std::make_shared<const MsgHeader>(header, header->ComputeDigest());
    primary_->OnMessage(topology_.primary_of[header->author], msg);
    return msg;
  }

  // True iff the primary voted for (and stored) the header `msg` carried.
  bool VotedFor(const MsgHeader& msg) const { return primary_->dag().HasHeader(msg.digest); }

  const Committee& committee() const { return committee_; }
  const Signer& signer(ValidatorId v) const { return *signers_[v]; }
  Primary& primary() { return *primary_; }
  const Dag& dag() const { return primary_->dag(); }

 private:
  Scheduler scheduler_;
  FixedLatencyModel latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  NullNode sink_;
  Topology topology_;
  std::vector<std::unique_ptr<Signer>> signers_;
  Committee committee_;
  std::unique_ptr<Primary> primary_;
};

std::vector<Certificate> Pick(const std::vector<Certificate>& certs,
                              std::initializer_list<size_t> indexes) {
  std::vector<Certificate> picked;
  for (size_t i : indexes) {
    picked.push_back(certs[i]);
  }
  return picked;
}

TEST(PrimaryParentsTest, HeldDigestUnderAnotherRoundRejectsHeader) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  const std::vector<Certificate> r1 = h.NextRound(1, r0);
  for (const Certificate& cert : r0) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  for (const Certificate& cert : r1) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  // Validator 1's round-0 digest presented as its round-1 block, with votes
  // that do verify over the mislabelled pre-image.
  const Certificate relabelled = h.Certify(r0[1].header_digest, 1, 1);
  auto msg = h.Deliver(h.MakeHeader(2, 2, {r1[0], relabelled, r1[2]}));
  EXPECT_FALSE(h.VotedFor(*msg));
  EXPECT_EQ(h.primary().votes_cast(), 0u);
  EXPECT_EQ(h.dag().GetCertByDigest(r0[1].header_digest)->round, 0u);

  // The honest parent set is accepted.
  auto honest = h.Deliver(h.MakeHeader(2, 2, Pick(r1, {0, 1, 2})));
  EXPECT_TRUE(h.VotedFor(*honest));
}

TEST(PrimaryParentsTest, HeldDigestUnderAnotherAuthorRejectsHeader) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  for (const Certificate& cert : r0) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  // Validator 0's block presented as validator 1's: same digest and round.
  const Certificate relabelled = h.Certify(r0[0].header_digest, 0, 1);
  auto msg = h.Deliver(h.MakeHeader(2, 1, {relabelled, r0[2], r0[3]}));
  EXPECT_FALSE(h.VotedFor(*msg));
  EXPECT_EQ(h.primary().votes_cast(), 0u);
  EXPECT_EQ(h.dag().GetCertByDigest(r0[0].header_digest)->author, 0u);
}

// A header delivered as a sync reply goes through the same parent intake: a
// parent citing a held digest under another round or author keeps the header
// out of the store.
TEST(PrimaryParentsTest, SyncedHeaderWithMislabelledParentIsNotStored) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  const std::vector<Certificate> r1 = h.NextRound(1, r0);
  for (const Certificate& cert : r0) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  for (const Certificate& cert : r1) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  // Answers a sync request with `header` and its certificate; true iff the
  // primary stored the header.
  auto sync = [&h](std::shared_ptr<const BlockHeader> header) {
    const Digest digest = header->ComputeDigest();
    h.primary().OnMessage(
        0, std::make_shared<const MsgCertResponse>(h.Certify(digest, header->round, header->author),
                                                   header));
    return h.dag().HasHeader(digest);
  };
  // Validator 1's round-0 digest cited as its round-1 block.
  EXPECT_FALSE(sync(h.MakeHeader(2, 2, {r1[0], h.Certify(r0[1].header_digest, 1, 1), r1[2]})));
  EXPECT_EQ(h.dag().GetCertByDigest(r0[1].header_digest)->round, 0u);
  // Validator 0's round-1 block cited as validator 3's.
  EXPECT_FALSE(sync(h.MakeHeader(1, 2, {h.Certify(r1[0].header_digest, 1, 3), r1[1], r1[2]})));
  EXPECT_EQ(h.dag().GetCertByDigest(r1[0].header_digest)->author, 0u);

  // The honest parent set is stored.
  EXPECT_TRUE(sync(h.MakeHeader(3, 2, Pick(r1, {0, 1, 2}))));
}

TEST(PrimaryParentsTest, HeldParentWithTamperedVotesIsMatchedByDigest) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  for (const Certificate& cert : r0) {
    ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(cert));
  }
  const Certificate* held = h.dag().GetCertByDigest(r0[1].header_digest);
  std::vector<Certificate> parents = Pick(r0, {0, 1, 2});
  std::vector<VoteList::Entry> votes = parents[1].votes.Entries();
  votes[0].second[0] ^= 1;
  votes.pop_back();  // Below the quorum, too.
  parents[1].votes = VoteList(votes);
  auto msg = h.Deliver(h.MakeHeader(3, 1, parents));
  EXPECT_TRUE(h.VotedFor(*msg));
  // The DAG keeps the certificate it verified, not the presented one.
  EXPECT_EQ(h.dag().GetCertByDigest(r0[1].header_digest), held);
  EXPECT_EQ(held->votes, r0[1].votes);
}

TEST(PrimaryParentsTest, UnknownParentWithOneBadVoteRejectsHeader) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  // Two parents held, the third unknown and carrying one bad signature.
  ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(r0[0]));
  ASSERT_TRUE(h.primary().mutable_dag().AddCertificate(r0[1]));
  std::vector<Certificate> parents = Pick(r0, {0, 1, 2});
  std::vector<VoteList::Entry> votes = parents[2].votes.Entries();
  votes[1].second[5] ^= 1;
  parents[2].votes = VoteList(votes);
  auto msg = h.Deliver(h.MakeHeader(3, 1, parents));
  EXPECT_FALSE(h.VotedFor(*msg));
  EXPECT_EQ(h.dag().GetCertByDigest(r0[2].header_digest), nullptr);
  EXPECT_EQ(h.dag().TotalCertificates(), 2u);

  // With every parent unknown, one bad vote keeps all of them out.
  ParentHarness fresh;
  auto all_unknown = fresh.Deliver(fresh.MakeHeader(3, 1, parents));
  EXPECT_FALSE(fresh.VotedFor(*all_unknown));
  EXPECT_EQ(fresh.dag().TotalCertificates(), 0u);
}

// SHA-256 compressions spent delivering `header` to `h`'s primary.
uint64_t BlocksToDeliver(ParentHarness& h, std::shared_ptr<const BlockHeader> header) {
  const uint64_t before = Sha256::blocks_processed();
  auto msg = h.Deliver(std::move(header));
  EXPECT_TRUE(h.VotedFor(*msg));
  return Sha256::blocks_processed() - before;
}

TEST(PrimaryParentsTest, EachUnknownParentIsVerifiedOnce) {
  ParentHarness probe;
  const std::vector<Certificate> r0 = probe.Genesis();
  const std::vector<Certificate> parents = Pick(r0, {0, 1, 2});
  std::shared_ptr<const BlockHeader> first = probe.MakeHeader(3, 1, parents);
  std::shared_ptr<const BlockHeader> second = probe.MakeHeader(2, 1, parents);

  // One verification of the three parents, on its own.
  const uint64_t before = Sha256::blocks_processed();
  ASSERT_TRUE(
      Certificate::VerifyAll(parents, probe.committee(), probe.signer(0), /*cache=*/nullptr));
  const uint64_t verify_once = Sha256::blocks_processed() - before;
  ASSERT_GT(verify_once, 0u);

  // The same header costs `verify_once` more where its parents are unknown
  // than where the DAG already holds them.
  ParentHarness held;
  for (const Certificate& cert : parents) {
    ASSERT_TRUE(held.primary().mutable_dag().AddCertificate(cert));
  }
  const uint64_t held_cost = BlocksToDeliver(held, first);

  ParentHarness unknown;
  const uint64_t unknown_cost = BlocksToDeliver(unknown, first);
  EXPECT_EQ(unknown_cost, held_cost + verify_once);
  // The parents are now held: a second header citing them verifies nothing.
  EXPECT_EQ(BlocksToDeliver(unknown, second), BlocksToDeliver(held, second));
}

// A primary verifies each vote on arrival, so the certificate it forms from
// them costs no further signature check.
TEST(PrimaryParentsTest, FormingACertificateChecksNoSignatureAgain) {
  ParentHarness h;
  h.primary().OnStart();  // Proposes its genesis header and votes for it.
  const Digest digest = h.MakeHeader(0, 0, {})->ComputeDigest();
  // SHA-256 compressions spent receiving `voter`'s vote.
  auto receive_vote = [&h, &digest](ValidatorId voter) {
    Vote vote;
    vote.header_digest = digest;
    vote.voter = voter;
    vote.sig = h.signer(voter).Sign(Certificate::VotePreimage(digest, 0, 0));
    const uint64_t before = Sha256::blocks_processed();
    h.primary().OnMessage(0, std::make_shared<const MsgVote>(vote));
    return Sha256::blocks_processed() - before;
  };
  const uint64_t one_vote = receive_vote(1);
  ASSERT_GT(one_vote, 0u);
  ASSERT_EQ(h.primary().certs_formed(), 0u);
  // The quorum's last vote forms the certificate and costs one vote's check.
  EXPECT_EQ(receive_vote(2), one_vote);
  EXPECT_EQ(h.primary().certs_formed(), 1u);
  EXPECT_NE(h.dag().GetCertByDigest(digest), nullptr);
}

TEST(PrimaryParentsTest, HeaderParentIsHeldInsideTheHeader) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  auto msg = h.Deliver(h.MakeHeader(3, 1, Pick(r0, {0, 1, 2})));
  ASSERT_TRUE(h.VotedFor(*msg));
  for (const Certificate& parent : msg->header->parents) {
    EXPECT_EQ(h.dag().GetCertByDigest(parent.header_digest), &parent);
  }
}

TEST(PrimaryParentsTest, BroadcastCertificateIsHeldInsideTheMessage) {
  ParentHarness h;
  const std::vector<Certificate> r0 = h.Genesis();
  auto msg = std::make_shared<const MsgCertificate>(r0[2]);
  h.primary().OnMessage(0, msg);
  EXPECT_EQ(h.dag().GetCertByDigest(r0[2].header_digest), &msg->cert);
  EXPECT_EQ(h.dag().GetSharedCert(r0[2].header_digest).get(), &msg->cert);

  // A forged broadcast never enters the DAG.
  std::vector<VoteList::Entry> votes = r0[3].votes.Entries();
  votes[0].second[0] ^= 1;
  Certificate forged = r0[3];
  forged.votes = VoteList(votes);
  h.primary().OnMessage(0, std::make_shared<const MsgCertificate>(forged));
  EXPECT_EQ(h.dag().GetCertByDigest(forged.header_digest), nullptr);
}

}  // namespace
}  // namespace nt
