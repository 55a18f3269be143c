// One table of what the codec produces, on fixed instances:
//  - the WireSize() of every protocol message struct, which the simulated
//    network charges for transmission;
//  - the stored bytes of every WAL record type, as PutRecord writes them.
//    The 'H' record is sealed from a header with parent certificates, and
//    the 'U' records are the ones a live Tusk and a live Bullshark committer
//    write, so their rule state comes from the committers' own encoders.
// A codec change that moves any of these moves what the network accounts
// or what a recovering validator reads back.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

Signature TestSig(uint8_t seed) {
  Signature sig{};
  for (size_t i = 0; i < sig.size(); ++i) {
    sig[i] = static_cast<uint8_t>(seed + 5 * i);
  }
  return sig;
}

Certificate TestCert(const std::string& name, Round round, ValidatorId author) {
  const std::vector<VoteList::Entry> votes = {
      {0, TestSig(1)}, {1, TestSig(2)}, {3, TestSig(3)}};
  return Certificate(Sha256::Hash(name), round, author, votes);
}

BatchRef TestRef(const std::string& name, WorkerId worker, uint64_t txs) {
  BatchRef ref;
  ref.digest = Sha256::Hash(name);
  ref.worker = worker;
  ref.num_txs = txs;
  ref.payload_bytes = txs * 512;
  return ref;
}

std::shared_ptr<const BlockHeader> TestHeader() {
  auto header = std::make_shared<BlockHeader>();
  header->author = 2;
  header->round = 9;
  header->batches = {TestRef("batch-a", 0, 10), TestRef("batch-b", 1, 3)};
  header->parents = {TestCert("parent-a", 8, 0), TestCert("parent-b", 8, 1),
                     TestCert("parent-c", 8, 3)};
  header->author_sig = TestSig(7);
  return header;
}

std::shared_ptr<const Batch> TestBatch() {
  Batch::Builder builder(1, 0);
  const Bytes tx = {1, 2, 3, 4, 5};
  builder.AddTx(tx);
  builder.AddLoad(40, 40 * 512);
  builder.AddSample({77, Millis(12)});
  return builder.Seal(3);
}

QuorumCert TestQc() {
  QuorumCert qc;
  qc.block_digest = Sha256::Hash("qc-block");
  qc.view = 14;
  qc.votes = {{0, TestSig(4)}, {2, TestSig(5)}, {3, TestSig(6)}};
  return qc;
}

std::shared_ptr<const HsBlock> TestHsBlock() {
  auto block = std::make_shared<HsBlock>();
  block->author = 1;
  block->view = 15;
  block->justify = TestQc();
  block->parent = block->justify.block_digest;
  TimeoutCert tc;
  tc.view = 14;
  tc.votes = {{1, TestSig(8)}, {2, TestSig(9)}, {3, TestSig(10)}};
  block->tc = tc;
  block->payload.kind = HsPayload::Kind::kCertificates;
  block->payload.certs = {TestCert("hs-cert", 4, 2)};
  block->author_sig = TestSig(11);
  return block;
}

TEST(WirePinTest, MessageWireSizes) {
  const Digest d = Sha256::Hash("message");
  const std::shared_ptr<const Batch> batch = TestBatch();
  const std::shared_ptr<const BlockHeader> header = TestHeader();
  const std::shared_ptr<const HsBlock> block = TestHsBlock();
  Vote vote;
  vote.header_digest = d;
  vote.round = 9;
  vote.author = 2;
  vote.voter = 1;
  vote.sig = TestSig(12);
  HsBlock tx_block;
  tx_block.payload.num_txs = 30;
  tx_block.payload.payload_bytes = 30 * 512;
  tx_block.payload.samples = {{1, Millis(3)}, {2, Millis(4)}};
  const auto tx_proposal = std::make_shared<const HsBlock>(tx_block);
  HsBlock digest_block;
  digest_block.payload.kind = HsPayload::Kind::kBatchDigests;
  digest_block.payload.batch_digests = {d, d, d, d};
  const auto digest_proposal = std::make_shared<const HsBlock>(digest_block);

  // Each message: its name, its WireSize() and the pinned size.
  const std::vector<std::tuple<std::string, size_t, size_t>> sizes = {
      {"Batch", MsgBatch(batch, d).WireSize(), 20533},
      {"BatchAck", MsgBatchAck(d, 1).WireSize(), 36},
      {"BatchReady", MsgBatchReady(TestRef("ready", 1, 7)).WireSize(), 52},
      {"FetchBatch", MsgFetchBatch(d, 2, 1).WireSize(), 40},
      {"BatchStored", MsgBatchStored(d).WireSize(), 32},
      {"Header", MsgHeader(header, d).WireSize(), 944},
      {"Vote", MsgVote(vote).WireSize(), 112},
      {"Certificate", MsgCertificate(TestCert("cert", 8, 3)).WireSize(), 252},
      {"CertRequest", MsgCertRequest(d).WireSize(), 32},
      {"CertResponse", MsgCertResponse(TestCert("cert", 8, 3), header).WireSize(), 1196},
      {"BatchRequest", MsgBatchRequest(d).WireSize(), 32},
      {"BatchResponse", MsgBatchResponse(batch, d).WireSize(), 20533},
      {"HsProposal", MsgHsProposal(block, d).WireSize(), 845},
      {"HsProposal/txs", MsgHsProposal(tx_proposal, d).WireSize(), 15569},
      {"HsProposal/digests", MsgHsProposal(digest_proposal, d).WireSize(), 305},
      {"HsVote", MsgHsVote(d, 15, 1, TestSig(13)).WireSize(), 108},
      {"HsTimeout", MsgHsTimeout(15, 1, TestSig(14), TestQc()).WireSize(), 320},
      {"HsBlockRequest", MsgHsBlockRequest(d).WireSize(), 32},
      {"HsBlockResponse", MsgHsBlockResponse(block, d).WireSize(), 845},
      {"GossipTxs", MsgGossipTxs(25, 25 * 512).WireSize(), 12816},
  };
  for (const auto& [name, size, pinned] : sizes) {
    EXPECT_EQ(size, pinned) << name;
  }
}

// The value PutRecord stores for `record`, in hex.
template <typename R>
std::string StoredHex(const R& record) {
  MemStore store;
  PutRecord(store, record);
  std::string hex;
  store.ForEach([&](const Digest&, const SharedBytes& value) { hex = ToHex(*value); });
  return hex;
}

// The 'U' record validator 0's committer writes during a short run of
// `system` on four validators, validator 3 down from the start (so the
// Bullshark schedule settles skipped anchors as well as ordered ones).
std::string CommitterMetaHex(SystemKind system) {
  ClusterConfig config;
  config.system = system;
  config.bullshark.reputation = true;
  Cluster cluster(config);
  cluster.CrashValidator(3, 0);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));
  std::string hex;
  cluster.consensus_store(0)->ForEach([&](const Digest&, const SharedBytes& value) {
    if (!value->empty() && (*value)[0] == CommitterMeta::kTag) {
      hex = ToHex(*value);
    }
  });
  return hex;
}

TEST(WirePinTest, RecordBytes) {
  const std::shared_ptr<const BlockHeader> header = TestHeader();
  // Each record: its tag, its stored value and the pinned value, in hex.
  const std::vector<std::tuple<std::string, std::string, std::string>> records = {
      {"M", StoredHex(PrimaryMeta{31}), "4d1f00000000000000"},
      {"H", StoredHex(HeaderRecord::Of(*header, header->ComputeDigest())),
       "4802000000090000000000000002000000a40c684861eaedf0ba93b24850e7153280225e297566a3c62b7b3db0"
       "b8cfcea0000000000a00000000000000001400000000000089a0bfc3407b8257c04c4310c168ad0efe640ee31f"
       "71c08efdc6fbab62cfbcd10100000003000000000000000006000000000000030000002fbf067e9c68d7aa61a5"
       "891ba0cfe87619f81b8540a1450bff5a5f0481218754189793de2b346e3bb8869d0b80e5cb6f2743291c4aec0b"
       "329f4f57f08e87e9f37eff41696bb2174d8f502ba897bb76767d17002c6794d2c7b25bef74bcd4ef5a070c1116"
       "1b20252a2f34393e43484d52575c61666b70757a7f84898e93989da2a7acb1b6bbc0c5cacfd4d9dee3e8edf2f7"
       "fc01060b10151a1f24292e33383d42"},
      {"V", StoredHex(VoteRecord{12, 3, Sha256::Hash("vote-record")}),
       "560c0000000000000003000000419ac71c008961aba906a9530ddd1b09af86034434bc1aec14e41e79b4f16226"},
      {"P", StoredHex(ProposalRecord{13, Sha256::Hash("proposal-record")}),
       "500d00000000000000b5c4b7d185b9bf5567bed751f21069bff93065b3311af35bc0ac332485345636"},
      {"T", StoredHex(CommitRecord{14, Sha256::Hash("commit-record")}),
       "540e0000000000000008e05b80431bc2071cebec8d9a26e20b1de081bfc1bff1f5d9fba9dfb3ef4676"},
      {"U/tusk", CommitterMetaHex(SystemKind::kTusk), "550800000000000000"},
      {"U/bullshark", CommitterMetaHex(SystemKind::kBullshark),
       "550900000000000000090000000000000004000000000000000900000000000000010100000006000000000000"
       "00010200000007000000000000000103000000040000000000000000"},
      {"W", StoredHex(HsVoteRecord{21, Sha256::Hash("hs-vote-record")}),
       "5715000000000000008eec66c7737f9b56987c5e99013a314b5ffb3db2d2eeeff559787de1447d3f50"},
      {"L", StoredHex(HsLockRecord{20, Sha256::Hash("hs-lock-record")}),
       "4c14000000000000008bafe19759fd41a49fc65128e234ccf3af3c8dfbfe942cb60e45b273dd15770e"},
      {"E", StoredHex(HsViewRecord{22}), "451600000000000000"},
      {"F", StoredHex(HsProposedRecord{23}), "461700000000000000"},
      {"Q", StoredHex(HsHighQcRecord{TestQc()}),
       "512b01244dbc4fb884de35e6d640119fbe753bb8ba9202a0e9a15a172329b466340e0000000000000003000000"
       "0000000004090e13181d22272c31363b40454a4f54595e63686d72777c81868b90959a9fa4a9aeb3b8bdc2c7cc"
       "d1d6dbe0e5eaeff4f9fe03080d12171c21262b30353a3f02000000050a0f14191e23282d32373c41464b50555a"
       "5f64696e73787d82878c91969ba0a5aaafb4b9bec3c8cdd2d7dce1e6ebf0f5faff04090e13181d22272c31363b"
       "4003000000060b10151a1f24292e33383d42474c51565b60656a6f74797e83888d92979ca1a6abb0b5babfc4c9"
       "ced3d8dde2e7ecf1f6fb00050a0f14191e23282d32373c41"},
      {"K", StoredHex(HsCommitRecord{Sha256::Hash("hs-commit-record"), 19, 57}),
       "4b90742610c2d1ac1dfa81a63ce6171f7168f25a60fdcc15fe03590ae9db703123130000000000000039000000"
       "00000000"},
  };
  for (const auto& [tag, hex, pinned] : records) {
    EXPECT_EQ(hex, pinned) << "'" << tag << "'";
  }
}

}  // namespace
}  // namespace nt
