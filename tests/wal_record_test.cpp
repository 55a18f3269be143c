// The WAL record layer (src/store/record.h) and every record type the
// primary and consensus stores hold:
//  - pinned bytes: each record, encoded through its type, matches the key and
//    value bytes the hand-written Persist code wrote before the record types
//    existed, so WALs written by earlier builds recover unchanged. 'K' is the
//    exception: it changed from one record per committed block to the
//    latest-only commit frontier, and its pin is the new format;
//  - strict decoding: a record decodes back to itself, and a truncated
//    record or one with trailing bytes decodes to nothing;
//  - dispatch: ForEachRecord visits only the listed owners' tags;
//  - field lists: every field-listed type decodes back to its encoding, whose
//    length is its WireSizeOf; Bullshark's rule state must be exactly one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

Signature TestSig(uint8_t seed) {
  Signature sig{};
  for (size_t i = 0; i < sig.size(); ++i) {
    sig[i] = static_cast<uint8_t>(seed + 3 * i);
  }
  return sig;
}

// The one key/value pair PutRecord stores for `record`.
template <typename R>
std::pair<Digest, Bytes> Stored(const R& record) {
  MemStore store;
  PutRecord(store, record);
  EXPECT_EQ(store.size(), 1u);
  std::pair<Digest, Bytes> out;
  store.ForEach([&](const Digest& key, const SharedBytes& value) { out = {key, *value}; });
  return out;
}

// Checks the stored key and value of `record` against the pinned hex, then
// the strict decode on those bytes. `delimited` is false for a record whose
// last field runs to the end of the value, which no cut or padding can
// invalidate.
template <typename R>
void ExpectPinned(const R& record, const std::string& key_hex, const std::string& value_hex,
                  bool delimited = true) {
  SCOPED_TRACE(std::string("tag '") + static_cast<char>(R::kTag) + "'");
  auto [key, value] = Stored(record);
  EXPECT_EQ(ToHex(key.data(), key.size()), key_hex);
  EXPECT_EQ(ToHex(value), value_hex);

  std::optional<R> decoded = DecodeRecord<R>(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(Stored(*decoded).second, value) << "decode + encode is not the identity";
  if (delimited) {
    Bytes truncated(value.begin(), value.end() - 1);
    EXPECT_FALSE(DecodeRecord<R>(truncated).has_value()) << "a truncated record decoded";
    Bytes trailing = value;
    trailing.push_back(0);
    EXPECT_FALSE(DecodeRecord<R>(trailing).has_value()) << "a record with trailing bytes decoded";
  }
}

TEST(WalRecordTest, PrimaryRecordsMatchThePinnedBytes) {
  ExpectPinned(PrimaryMeta{42},
               "cf516cc374a168b98838701bcc0307cb9890635c820cdfd85c50ab92601e172b",
               "4d2a00000000000000");

  BlockHeader header;
  header.author = 2;
  header.round = 7;
  BatchRef ref;
  ref.digest = Sha256::Hash("batch");
  ref.worker = 1;
  ref.num_txs = 10;
  ref.payload_bytes = 5120;
  header.batches.push_back(ref);
  header.author_sig = TestSig(1);
  ExpectPinned(HeaderRecord{Sha256::Hash("header"), header,
                            {Sha256::Hash("parent-0"), Sha256::Hash("parent-1")}},
               "eac4b757a95be2710edac0387da176f70b3322334865b09297e690522b4daae1",
               "48020000000700000000000000010000004bb24efc9641afc5ded1ca77eabb6e"
               "2fcf062d2112ccd61bd8bd6acd89180bae010000000a00000000000000001400"
               "00000000000200000062cafb4d2288f8a6153e67b9f0c54a30b2b15037972279"
               "72d9eb734d4614d7fef2a0ede82b5b172b5fe082f344cf232da686bda1c8e730"
               "17009cdf979efd52ad0104070a0d101316191c1f2225282b2e3134373a3d4043"
               "46494c4f5255585b5e6164676a6d707376797c7f8285888b8e9194979a9da0a3"
               "a6a9acafb2b5b8bbbe");

  Certificate cert;
  cert.header_digest = Sha256::Hash("cert");
  cert.round = 6;
  cert.author = 3;
  cert.votes = {{0, TestSig(5)}, {2, TestSig(9)}};
  ExpectPinned(CertRecord{cert},
               "ace9788054938275f63590be5bbf45203cd845542b39f095319388ce2f28f062",
               "4306298432e8066b29e2223bcc23aa9504b56ae508fabf3435508869b9c3190e"
               "22060000000000000003000000020000000000000005080b0e1114171a1d2023"
               "26292c2f3235383b3e4144474a4d505356595c5f6265686b6e7174777a7d8083"
               "86898c8f9295989b9ea1a4a7aaadb0b3b6b9bcbfc202000000090c0f1215181b"
               "1e2124272a2d303336393c3f4245484b4e5154575a5d606366696c6f7275787b"
               "7e8184878a8d909396999c9fa2a5a8abaeb1b4b7babdc0c3c6");

  ExpectPinned(VoteRecord{9, 1, Sha256::Hash("vote")},
               "fbef5bf72b049e28b6090037ec7465c5eb6458bb2c233755b232bbadfe95ad86",
               "56090000000000000001000000ab274474a6aa82c100dddca63977facb556f66"
               "f489fb558c044a456f9ba919ce");
  ExpectPinned(ProposalRecord{11, Sha256::Hash("proposal")},
               "b917755387db67e3b81149020809b18f93a17a8b942f84f652cd726ee2d56a60",
               "500b00000000000000ecd1378bc9dc130008f00d58db5d26f60db55934a49b94"
               "9af7e6f6a8da2a2beb");
}

TEST(WalRecordTest, ConsensusRecordsMatchThePinnedBytes) {
  ExpectPinned(CommitRecord{12, Sha256::Hash("commit")},
               "a45e5796ff2e4357b8cf8dc05efb6f770ad331626782cb85c6fdf2227ceefb8c",
               "540c000000000000009505cacb7c710ed17125fcc6cb3669e8ddca6c8cd8af6a"
               "31f6b3cd64604c3098");
  // Tusk's meta record carries no rule state; Bullshark's carries its anchor
  // schedule (settled through wave 4; outcomes (author 1, wave 3, ordered)
  // and (author 2, wave 4, skipped)), which runs to the end of the record.
  ExpectPinned(CommitterMeta{5, {}},
               "832c487d83a519a5c527f9fc55bb11a85fc5ee72bf9da08ec2642ad1ceb82546",
               "550500000000000000",
               /*delimited=*/false);
  ExpectPinned(CommitterMeta{5, *FromHex("04000000000000000200000001000000030000000000000001"
                                         "02000000040000000000000000")},
               "832c487d83a519a5c527f9fc55bb11a85fc5ee72bf9da08ec2642ad1ceb82546",
               "5505000000000000000400000000000000020000000100000003000000000000"
               "000102000000040000000000000000",
               /*delimited=*/false);

  ExpectPinned(HsVoteRecord{17, Sha256::Hash("hs-vote")},
               "6d8c8bd09bf6772467d3d6ae9ce9ea88876ad6de2472b9a858f7845611d1f0a1",
               "571100000000000000da19074b59f1975ba80946176b089c678f985536435463"
               "2ab2ed983a3d20a4f7");
  ExpectPinned(HsLockRecord{15, Sha256::Hash("hs-lock")},
               "88e1f95f5e85d867fc790d47d4cd61b83233e889a15116d31f2c9d113edbfc3b",
               "4c0f0000000000000074b85fc0b46784a5b6ff7f4d1e9334602e1e28a7c37739"
               "37f6dc7c7491384c29");
  ExpectPinned(HsViewRecord{18},
               "2254151e64d1c4242b61275ab68da9ecca3c8b12863ade4a36b71248996133c4",
               "451200000000000000");
  ExpectPinned(HsProposedRecord{19},
               "61b7d95b5f5b38284435782a5491a40a248f998dbed9bd1002cc1b12bbeb2366",
               "461300000000000000");
  QuorumCert qc;
  qc.block_digest = Sha256::Hash("hs-qc");
  qc.view = 16;
  qc.votes = {{0, TestSig(11)}, {1, TestSig(13)}, {3, TestSig(17)}};
  ExpectPinned(HsHighQcRecord{qc},
               "279febebc4e7afb507e544adf91f08891b9ab7d268eec2440ac44437bdf028be",
               "51bf8c533bcd2b0276ada8c2e2133a02d14ea7b98b19c3610ce183b2f36e33d6"
               "db100000000000000003000000000000000b0e1114171a1d202326292c2f3235"
               "383b3e4144474a4d505356595c5f6265686b6e7174777a7d808386898c8f9295"
               "989b9ea1a4a7aaadb0b3b6b9bcbfc2c5c8010000000d101316191c1f2225282b"
               "2e3134373a3d404346494c4f5255585b5e6164676a6d707376797c7f8285888b"
               "8e9194979a9da0a3a6a9acafb2b5b8bbbec1c4c7ca030000001114171a1d2023"
               "26292c2f3235383b3e4144474a4d505356595c5f6265686b6e7174777a7d8083"
               "86898c8f9295989b9ea1a4a7aaadb0b3b6b9bcbfc2c5c8cbce");
  // New format: recorded from this code, not from the per-block records.
  ExpectPinned(HsCommitRecord{Sha256::Hash("hs-commit"), 23, 41},
               "4c60626b310e404f9f4620796f3970a1eb479e03112aef78c8d6a5cf2e94e117",
               "4b95b7777a530d0265d486fe4517f04c2df2c9350a22f41cdf6d009ce1cf506b"
               "2e17000000000000002900000000000000");
}

TEST(WalRecordTest, ForEachRecordVisitsOnlyTheListedTags) {
  MemStore store;
  PutRecord(store, CommitRecord{3, Sha256::Hash("a")});
  PutRecord(store, CommitRecord{4, Sha256::Hash("b")});
  PutRecord(store, CommitterMeta{2, {}});
  PutRecord(store, HsViewRecord{9});
  store.Put(Sha256::Hash("garbage"), Bytes{CommitRecord::kTag, 1, 2});  // Short: skipped.

  std::vector<Round> rounds;
  size_t seen = ForEachRecord<CommitRecord>(
      store, [&](const CommitRecord& rec) { rounds.push_back(rec.round); });
  EXPECT_EQ(seen, 3u);  // Both intact records and the short one.
  std::sort(rounds.begin(), rounds.end());
  EXPECT_EQ(rounds, (std::vector<Round>{3, 4}));

  size_t metas = 0;
  size_t views = 0;
  ConsensusStoreRecords::ForEach(
      store, Overloaded{
                 [](const CommitRecord&) {},
                 [&](const CommitterMeta& m) { metas += m.wave == 2 ? 1 : 0; },
                 [&](const HsViewRecord& v) { views += v.view == 9 ? 1 : 0; },
                 // The HotStuff records this store lacks still need handlers.
                 [](const HsVoteRecord&) {},
                 [](const HsLockRecord&) {},
                 [](const HsProposedRecord&) {},
                 [](const HsHighQcRecord&) {},
                 [](const HsCommitRecord&) {},
             });
  EXPECT_EQ(metas, 1u);
  EXPECT_EQ(views, 1u);
}

// ---------------------------------------------------------------- field lists

// One instance of each field-listed type, distinct in type.
auto Samples() {
  const std::vector<VoteList::Entry> votes = {{0, TestSig(5)}, {2, TestSig(9)}};
  const Certificate cert(Sha256::Hash("certified"), 6, 3, votes);
  const BatchRef ref{Sha256::Hash("ref"), 1, 10, 5120};
  BlockHeader header;
  header.author = 2;
  header.round = 7;
  header.batches = {ref, ref};
  header.author_sig = TestSig(1);
  BlockHeader with_parents = header;
  with_parents.parents = {cert, cert};
  QuorumCert qc;
  qc.block_digest = Sha256::Hash("hs-qc");
  qc.view = 16;
  qc.votes = {{0, TestSig(11)}, {1, TestSig(13)}, {3, TestSig(17)}};
  return std::tuple{
      ref,
      Vote{Sha256::Hash("voted"), 6, 2, 3, TestSig(4)},
      cert,
      with_parents,
      AnchorOutcome{2, 4, true},
      AnchorScheduleState{4, {{1, 3, true}, {2, 4, false}}},
      PrimaryMeta{42},
      HeaderRecord{Sha256::Hash("header"), header, {Sha256::Hash("p-0"), Sha256::Hash("p-1")}},
      CertRecord{cert},
      VoteRecord{9, 1, Sha256::Hash("vote")},
      ProposalRecord{11, Sha256::Hash("proposal")},
      CommitRecord{12, Sha256::Hash("commit")},
      CommitterMeta{5, {1, 2, 3}},
      HsVoteRecord{17, Sha256::Hash("hs-vote")},
      HsLockRecord{15, Sha256::Hash("hs-lock")},
      HsViewRecord{18},
      HsProposedRecord{19},
      HsHighQcRecord{qc},
      HsCommitRecord{Sha256::Hash("hs-commit"), 23, 41},
  };
}

template <typename T>
class FieldListTest : public ::testing::Test {};

using FieldListedTypes =
    ::testing::Types<BatchRef, Vote, Certificate, BlockHeader, AnchorOutcome, AnchorScheduleState,
                     PrimaryMeta, HeaderRecord, CertRecord, VoteRecord, ProposalRecord,
                     CommitRecord, CommitterMeta, HsVoteRecord, HsLockRecord, HsViewRecord,
                     HsProposedRecord, HsHighQcRecord, HsCommitRecord>;
TYPED_TEST_SUITE(FieldListTest, FieldListedTypes);

// decode(encode(x)) encodes as x does, and the wire size is the encoding's
// length: none of these types holds an accounting model.
TYPED_TEST(FieldListTest, DecodeInvertsEncodeAndSizeIsTheEncodedLength) {
  const TypeParam value = std::get<TypeParam>(Samples());
  Writer encoding;
  EncodeWire(encoding, value);
  EXPECT_EQ(WireSizeOf(value), encoding.size());

  Reader r(encoding.bytes());
  const std::optional<TypeParam> decoded = DecodeWhole<TypeParam>(r);
  ASSERT_TRUE(decoded.has_value());
  Writer again;
  EncodeWire(again, *decoded);
  EXPECT_EQ(again.bytes(), encoding.bytes());
}

// ------------------------------------------------------- Bullshark rule state

// Bullshark with its anchor schedule in view.
class ScheduleProbe : public Bullshark {
 public:
  using Bullshark::Bullshark;
  using Bullshark::LeaderOf;
};

// The 'U' record's rule state is exactly one encoding of the anchor
// schedule: one trailing byte and the recovered schedule stays at its
// initial state, as for any other malformed state.
TEST(WalRecordTest, BullsharkRuleStateWithTrailingBytesIsIgnored) {
  ClusterConfig config;
  config.system = SystemKind::kBullshark;
  config.bullshark.reputation = true;
  Cluster cluster(config);
  // Settled through wave 4; author 2's wave-4 anchor was skipped, so with
  // reputation on, wave 7 (author 2's turn) passes to author 3.
  const Bytes state = *FromHex("04000000000000000200000001000000030000000000000001"
                               "02000000040000000000000000");
  auto leader_of_wave_7 = [&](const Bytes& rule_state) {
    MemStore store;
    PutRecord(store, CommitterMeta{4, rule_state});
    ScheduleProbe bullshark(cluster.primary(0), cluster.committee(), config.narwhal.gc_depth,
                            config.bullshark);
    bullshark.set_store(&store);
    bullshark.Recover();
    return bullshark.LeaderOf(7);
  };
  EXPECT_EQ(leader_of_wave_7(state), 3u);
  Bytes trailing = state;
  trailing.push_back(0);
  EXPECT_EQ(leader_of_wave_7(trailing), 2u);
}

}  // namespace
}  // namespace nt
