// Parser robustness: every Decode entry point is exercised with (a) random
// garbage, (b) truncations of valid encodings, and (c) single-byte
// corruptions. Decoders are the protocol's attack surface — they must never
// crash, loop, or read out of bounds, only return nullopt or a value.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/exec/state_machine.h"
#include "src/runtime/cluster.h"
#include "src/types/types.h"

namespace nt {
namespace {

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

template <typename T>
void DecodeGarbage(const Bytes& bytes) {
  Reader r(bytes);
  auto result = T::Decode(r);
  // Any outcome is fine; not crashing is the property. A WAL record (a type
  // with a tag) also decodes only if it is exactly its input.
  if constexpr (requires { T::kTag; }) {
    if (result.has_value()) {
      EXPECT_TRUE(r.AtEnd()) << "tag '" << static_cast<char>(T::kTag) << "'";
    }
  }
}

template <typename... T>
void DecodeGarbage(CodecList<T...> /*codecs*/, const Bytes& bytes) {
  (DecodeGarbage<T>(bytes), ...);
}

// The payload codecs a frame carries.
using WireCodecs = CodecList<Batch, BatchRef, Certificate, VoteList, BlockHeader, Vote>;

// The WAL records of every store.
using WalRecords =
    CodecList<PrimaryMeta, HeaderRecord, CertRecord, VoteRecord, ProposalRecord, CommitRecord,
              CommitterMeta, HsVoteRecord, HsLockRecord, HsViewRecord, HsProposedRecord,
              HsHighQcRecord, HsCommitRecord>;

TEST(FuzzDecodeTest, RandomGarbageNeverCrashes) {
  Rng rng(0xf22);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage = RandomBytes(rng, 512);
    DecodeGarbage(WireCodecs{}, garbage);
    (void)ExecTx::Decode(garbage);
  }
}

// WAL record decoders: a crash-torn or corrupted store value must never
// crash recovery. Short inputs too, so the fixed-size records sometimes
// decode.
TEST(FuzzDecodeTest, WalRecordGarbageNeverCrashes) {
  Rng rng(0x3a1);
  for (int i = 0; i < 2000; ++i) {
    DecodeGarbage(WalRecords{}, RandomBytes(rng, i < 1000 ? 64 : 512));
  }
}

// A realistic valid header encoding to mutate.
Bytes ValidHeaderEncoding() {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  BlockHeader header;
  header.author = 1;
  header.round = 7;
  BatchRef ref;
  ref.digest = Sha256::Hash("batch");
  ref.num_txs = 10;
  ref.payload_bytes = 5120;
  header.batches.push_back(ref);
  const Digest parent_digest = Sha256::Hash("parent");
  Bytes preimage = Certificate::VotePreimage(parent_digest, 6, 0);
  std::vector<VoteList::Entry> votes;
  for (uint32_t v = 0; v < 3; ++v) {
    votes.emplace_back(v, signer->Sign(preimage));
  }
  const Certificate parent(parent_digest, 6, 0, votes);
  header.parents.assign(3, parent);
  header.parents[1].author = 1;
  header.parents[2].author = 2;
  header.author_sig = signer->Sign(header.ComputeDigest());
  Writer w;
  header.Encode(w);
  return w.Take();
}

TEST(FuzzDecodeTest, EveryTruncationHandled) {
  Bytes valid = ValidHeaderEncoding();
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + len);
    Reader r(truncated);
    auto decoded = BlockHeader::Decode(r);
    // Truncation can never yield a header that consumed the full input.
    if (decoded.has_value()) {
      EXPECT_FALSE(r.AtEnd() && len == valid.size());
    }
  }
  // The untruncated form round-trips.
  Reader r(valid);
  ASSERT_TRUE(BlockHeader::Decode(r).has_value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(FuzzDecodeTest, BitFlipsEitherParseOrReject) {
  Bytes valid = ValidHeaderEncoding();
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = valid;
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    Reader r(mutated);
    auto decoded = BlockHeader::Decode(r);
    if (decoded.has_value()) {
      // A parsed-but-corrupted header must fail digest/signature checks
      // downstream — verify the digest actually moved or content survived.
      (void)decoded->ComputeDigest();
    }
  }
}

TEST(FuzzDecodeTest, HostileLengthPrefixesBounded) {
  // A length prefix claiming 4GB of samples must not allocate unboundedly:
  // the reader runs out of bytes and the loop exits on !ok().
  Writer w;
  w.PutU32(0);              // author
  w.PutU32(0);              // worker
  w.PutU64(0);              // seq
  w.PutU64(0);              // num_txs
  w.PutU64(0);              // payload_bytes
  w.PutU32(0xffffffffu);    // hostile sample count
  Bytes bytes = w.Take();
  Reader r(bytes);
  auto batch = Batch::Decode(r);
  EXPECT_FALSE(batch.has_value());
}

// A decoded certificate's votes are views into its own sealed buffer, not
// into the input: whatever vote count, truncation or corruption the decoder
// accepts, every view lies inside that buffer, and a count the input cannot
// hold is rejected.
TEST(FuzzDecodeTest, CertificateVoteViewsNeverLeaveTheirBuffer) {
  auto check = [](std::optional<Certificate> cert) {
    if (!cert.has_value()) {
      return false;
    }
    const SharedBytes buffer = cert->RecordValue();
    const uint8_t* lo = buffer->data();
    const uint8_t* hi = buffer->data() + buffer->size();
    auto inside = [lo, hi](const uint8_t* p, size_t n) { return p >= lo && p + n <= hi; };
    EXPECT_TRUE(inside(cert->votes.bytes().data(), cert->votes.bytes().size()));
    EXPECT_EQ(cert->votes.bytes().size(), 4 + cert->votes.size() * VoteList::kEntrySize);
    for (const VoteList::View vote : cert->votes) {
      EXPECT_TRUE(inside(vote.sig.data(), vote.sig.size()));
    }
    return true;
  };
  // Decodes `input` both ways: from a reader, and adopted as a 'C' value.
  auto decode = [&](const Bytes& input) {
    Reader r(input);
    const bool read = check(Certificate::Decode(r));
    Bytes value{CertRecord::kTag};
    value.insert(value.end(), input.begin(), input.end());
    const bool adopted = check(Certificate::Decode(std::make_shared<const Bytes>(value)));
    EXPECT_TRUE(!adopted || read) << "a value adopted whole that a reader rejects";
    return read;
  };

  Rng rng(0xce);
  for (int i = 0; i < 2000; ++i) {
    decode(RandomBytes(rng, 512));
  }
  Writer w;
  const Bytes header_encoding = ValidHeaderEncoding();
  Reader header_bytes(header_encoding);
  const std::optional<BlockHeader> header = BlockHeader::Decode(header_bytes);
  ASSERT_TRUE(header.has_value());
  header->parents[0].Encode(w);
  const Bytes valid = w.Take();
  constexpr size_t kCountAt = 32 + 8 + 4;
  Bytes padded = valid;  // Room for trailing bytes, too.
  padded.resize(valid.size() + 80);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated(padded.begin(),
                  padded.begin() + static_cast<ptrdiff_t>(rng.NextBelow(padded.size() + 1)));
    if (mutated.size() > kCountAt) {
      mutated[kCountAt] = static_cast<uint8_t>(rng.NextBelow(6));
    }
    accepted += decode(mutated);
  }
  EXPECT_GT(accepted, 100);

  // A count of 2^32 - 1 votes over one vote's bytes: rejected.
  Bytes hostile(valid.begin(), valid.begin() + kCountAt + 4 + VoteList::kEntrySize);
  hostile[kCountAt] = hostile[kCountAt + 1] = hostile[kCountAt + 2] = hostile[kCountAt + 3] = 0xff;
  EXPECT_FALSE(decode(hostile));
}

// A vote list read from a record (a QC in the 'Q' high-QC record) owns a
// buffer of its own, and a count the input cannot hold is rejected before
// anything is allocated.
TEST(FuzzDecodeTest, VoteListDecodeIsBoundedByItsInput) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  const VoteList votes{{0, signer->Sign(Sha256::Hash("a"))},
                       {2, signer->Sign(Sha256::Hash("b"))},
                       {3, signer->Sign(Sha256::Hash("c"))}};
  Writer w;
  votes.Encode(w);
  w.PutU8(7);  // A trailing byte the list does not own.
  const Bytes valid = w.Take();
  for (size_t len = 0; len + 1 < valid.size(); ++len) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(len));
    Reader r(truncated);
    EXPECT_FALSE(VoteList::Decode(r).has_value()) << "truncated to " << len;
  }
  Reader r(valid);
  const std::optional<VoteList> decoded = VoteList::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, votes);
  EXPECT_EQ(r.remaining(), 1u);
  const uint8_t* own = decoded->bytes().data();
  EXPECT_TRUE(own < valid.data() || own >= valid.data() + valid.size());

  // A count of 2^32 - 1 over one vote's bytes: rejected, alone and inside a
  // 'Q' record.
  Bytes hostile(valid.begin(), valid.begin() + 4 + VoteList::kEntrySize);
  hostile[0] = hostile[1] = hostile[2] = hostile[3] = 0xff;
  Reader hostile_list(hostile);
  EXPECT_FALSE(VoteList::Decode(hostile_list).has_value());
  Writer record;
  record.PutRaw(Sha256::Hash("block"));
  record.PutU64(5);
  record.PutRaw(hostile);
  Reader hostile_record(record.bytes());
  EXPECT_FALSE(HsHighQcRecord::Decode(hostile_record).has_value());
}

// The view decoder borrows from its input: whatever garbage, truncation or
// corruption it accepts, every field it returns lies inside that input.
TEST(FuzzDecodeTest, ExecTxViewsNeverLeaveTheInput) {
  auto check = [](const Bytes& wire) {
    auto view = ExecTx::Decode(wire);
    if (!view.has_value()) {
      return false;
    }
    const uint8_t* lo = wire.data();
    const uint8_t* hi = wire.data() + wire.size();
    auto inside = [lo, hi](const void* p, size_t n) {
      const auto* b = static_cast<const uint8_t*>(p);
      return n == 0 || (b >= lo && b + n <= hi);
    };
    EXPECT_TRUE(inside(view->key.data(), view->key.size()));
    EXPECT_TRUE(inside(view->key2.data(), view->key2.size()));
    EXPECT_TRUE(inside(view->value.data(), view->value.size()));
    return true;
  };
  Rng rng(0xe7);
  for (int i = 0; i < 2000; ++i) {
    check(RandomBytes(rng, 128));
  }
  ExecTx put = ExecTx::Put("key", {1, 2, 3, 4});
  put.key2 = "key2";
  const Bytes valid = put.Encode();
  int accepted = 0;
  for (size_t len = 0; len <= valid.size(); ++len) {
    accepted += check(Bytes(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(len)));
  }
  EXPECT_EQ(accepted, 1);  // Only the whole encoding decodes.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes corrupted = valid;
      corrupted[pos] ^= flip;
      check(corrupted);
    }
  }
}

TEST(FuzzDecodeTest, ExecTxGarbageAffectsNothing) {
  Rng rng(7);
  KvStateMachine sm;
  for (int i = 0; i < 500; ++i) {
    sm.Apply(RandomBytes(rng, 64));
  }
  EXPECT_EQ(sm.applied(), 0u);  // Nothing random decodes as a valid tx...
  EXPECT_EQ(sm.keys(), 0u);     // ...and state is untouched.
  EXPECT_EQ(sm.rejected(), 500u);
}

}  // namespace
}  // namespace nt
