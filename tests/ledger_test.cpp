// SigningLedger: every signature it returns for a statement a record guards
// (a Narwhal vote, a DAG header proposal, a HotStuff vote or proposal) is
// created after the Sync() that follows that record's Put, checked on one
// event log a spy store and a spy signer share. A re-sent Narwhal vote puts
// and syncs nothing; the unguarded signatures touch no store; and with no
// store the ledger signs and persists nothing.
#include "src/store/ledger.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hotstuff/hotstuff.h"
#include "src/narwhal/primary.h"

namespace nt {
namespace {

struct Event {
  enum Kind { kPut, kSync, kSign } kind;
  Digest key{};    // kPut: the record's key.
  Signature sig{};  // kSign: the signature made.
};

class SpyStore : public MemStore {
 public:
  explicit SpyStore(std::vector<Event>* log) : log_(log) {}
  using MemStore::Put;
  void Put(const Digest& key, SharedBytes value) override {
    log_->push_back({Event::kPut, key, {}});
    MemStore::Put(key, std::move(value));
  }
  void Sync() override {
    log_->push_back({Event::kSync, {}, {}});
    MemStore::Sync();
  }

 private:
  std::vector<Event>* log_;
};

class SpySigner : public Signer {
 public:
  explicit SpySigner(std::vector<Event>* log)
      : log_(log), inner_(MakeSigner(SignerKind::kFast, DeriveSeed(5, 0))) {}
  using Signer::Sign;
  const PublicKey& public_key() const override { return inner_->public_key(); }
  Signature Sign(const uint8_t* msg, size_t len) const override {
    Signature sig = inner_->Sign(msg, len);
    log_->push_back({Event::kSign, {}, sig});
    return sig;
  }
  bool Verify(const PublicKey& pk, const uint8_t* msg, size_t len,
              const Signature& sig) const override {
    return inner_->Verify(pk, msg, len, sig);
  }

 private:
  std::vector<Event>* log_;
  std::unique_ptr<Signer> inner_;
};

class LedgerTest : public ::testing::Test {
 protected:
  size_t IndexOfSign(const Signature& sig) const {
    for (size_t i = 0; i < log_.size(); ++i) {
      if (log_[i].kind == Event::kSign && log_[i].sig == sig) {
        return i;
      }
    }
    ADD_FAILURE() << "signature not made through the spy signer";
    return log_.size();
  }

  // `sig` was made after a Sync() that follows a Put of `key`.
  void ExpectSignedAfterSync(const Signature& sig, const Digest& key) const {
    const size_t signed_at = IndexOfSign(sig);
    bool put = false;
    bool synced_after_put = false;
    for (size_t i = 0; i < signed_at && i < log_.size(); ++i) {
      if (log_[i].kind == Event::kPut && log_[i].key == key) {
        put = true;
        synced_after_put = false;
      } else if (log_[i].kind == Event::kSync && put) {
        synced_after_put = true;
      }
    }
    EXPECT_TRUE(put) << "the record was not put before the signature";
    EXPECT_TRUE(synced_after_put) << "no Sync() between the record's Put and the signature";
  }

  size_t Count(Event::Kind kind) const {
    size_t n = 0;
    for (const Event& e : log_) {
      n += e.kind == kind ? 1 : 0;
    }
    return n;
  }

  std::vector<Event> log_;
  SpyStore store_{&log_};
  SpySigner signer_{&log_};
  SigningLedger ledger_{&signer_};
};

TEST_F(LedgerTest, NarwhalVoteIsSignedAfterItsRecordIsSynced) {
  ledger_.set_store(&store_);
  const Digest header = Sha256::Hash("header");
  const VoteRecord record{7, 2, header};
  const Signature sig =
      ledger_.SignVote(record, Certificate::VotePreimage(header, record.round, record.author));
  ExpectSignedAfterSync(sig, record.Key());
  EXPECT_TRUE(store_.Contains(record.Key()));

  // A re-sent vote: its entry is already durable, so only the signature is
  // made again, and it is the same one.
  log_.clear();
  EXPECT_EQ(ledger_.SignVote(record,
                             Certificate::VotePreimage(header, record.round, record.author)),
            sig);
  EXPECT_EQ(Count(Event::kPut), 0u);
  EXPECT_EQ(Count(Event::kSync), 0u);
  EXPECT_EQ(Count(Event::kSign), 1u);
}

TEST_F(LedgerTest, HeaderAndSelfVoteAreReturnedAfterTheMarkerIsSynced) {
  ledger_.set_store(&store_);
  BlockHeader header;
  header.author = 1;
  header.round = 4;
  const Digest digest = header.ComputeDigest();
  const ProposalRecord marker{header.round, digest};
  Signature header_sig{};
  const Signature self_vote = ledger_.SignHeader(
      digest,
      [&](const Signature& sig) {
        header_sig = sig;
        header.author_sig = sig;
        return HeaderRecord::Of(header, digest);
      },
      marker, Certificate::VotePreimage(digest, header.round, header.author));

  // The header's record carries its signature, so that signature precedes
  // the record; the self-vote follows the marker's Sync.
  EXPECT_LT(IndexOfSign(header_sig), IndexOfSign(self_vote));
  ExpectSignedAfterSync(self_vote, HeaderRecord::KeyOf(digest));
  ExpectSignedAfterSync(self_vote, marker.Key());
  // Today's WAL order: 'H', then 'P', then one Sync.
  ASSERT_EQ(log_.size(), 5u);
  EXPECT_EQ(log_[1].key, HeaderRecord::KeyOf(digest));
  EXPECT_EQ(log_[2].key, marker.Key());
  EXPECT_EQ(log_[3].kind, Event::kSync);
  EXPECT_TRUE(store_.Contains(HeaderRecord::KeyOf(digest)));
}

TEST_F(LedgerTest, HotStuffVoteAndProposalAreSignedAfterTheirRecordsAreSynced) {
  ledger_.set_store(&store_);
  const Digest block = Sha256::Hash("block");
  const HsProposedRecord marker{9};
  ExpectSignedAfterSync(ledger_.SignProposal(marker, block), marker.Key());

  // The vote record is latest-only: every vote overwrites it, durably.
  for (View view : {9u, 10u}) {
    const HsVoteRecord record{view, block};
    log_.clear();
    ExpectSignedAfterSync(ledger_.SignVote(record, QuorumCert::VotePreimage(block, view)),
                          record.Key());
    EXPECT_EQ(GetRecord<HsVoteRecord>(store_)->view, view);
  }
}

TEST_F(LedgerTest, UnguardedSignaturesTouchNoStore) {
  ledger_.set_store(&store_);
  ledger_.SignTimeout(TimeoutCert::VotePreimage(3));
  ledger_.RederiveSelfVote(Certificate::VotePreimage(Sha256::Hash("h"), 2, 0));
  ledger_.SignEquivocatorTwin(Sha256::Hash("twin"));
  EXPECT_EQ(Count(Event::kSign), 3u);
  EXPECT_EQ(log_.size(), 3u);
  EXPECT_EQ(store_.size(), 0u);
}

TEST_F(LedgerTest, WithoutAStoreTheLedgerOnlySigns) {
  const Digest digest = Sha256::Hash("block");
  const Bytes preimage = QuorumCert::VotePreimage(digest, 1);
  EXPECT_EQ(ledger_.SignVote(HsVoteRecord{1, digest}, preimage), signer_.Sign(preimage));
  EXPECT_EQ(ledger_.SignProposal(ProposalRecord{1, digest}, digest), signer_.Sign(digest));
  BlockHeader header;
  ledger_.SignHeader(
      digest,
      [&](const Signature& sig) {
        header.author_sig = sig;
        return HeaderRecord::Of(header, digest);
      },
      ProposalRecord{1, digest}, preimage);
  EXPECT_EQ(header.author_sig, signer_.Sign(digest));
  EXPECT_EQ(Count(Event::kPut), 0u);
  EXPECT_EQ(Count(Event::kSync), 0u);
  EXPECT_EQ(store_.size(), 0u);
}

}  // namespace
}  // namespace nt
