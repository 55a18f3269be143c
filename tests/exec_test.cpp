// Execution engine: transaction codec, state-machine semantics and
// determinism, executor ordering (including deferred batch data), and
// end-to-end replicated execution over a live Tusk cluster with state-digest
// agreement across replicas.
#include "src/exec/state_machine.h"

#include <gtest/gtest.h>

#include <set>

#include "src/runtime/cluster.h"
#include "src/shard/sharded_executor.h"

namespace nt {
namespace {

// A batch of explicit transactions, sealed as a worker seals one.
std::shared_ptr<const Batch> SealTxs(const std::vector<Bytes>& txs) {
  Batch::Builder builder(/*author=*/0, /*worker=*/0);
  for (const Bytes& tx : txs) {
    builder.AddTx(tx);
  }
  return builder.Seal(/*seq=*/0);
}

constexpr const char* kPinnedSnapshot =
    "160b5973ef0bcea65b8d2a51495ce28510b942af69eb7917567c4569b13cfb18";

// The decoded view copies nothing: its key, key2 and value are spans of the
// wire buffer itself.
TEST(ExecTxTest, EncodeDecodeRoundTrip) {
  ExecTx tx = ExecTx::Transfer("alice", "bob", 42);
  tx.value = {0xde, 0xad};
  const Bytes wire = tx.Encode();
  auto decoded = ExecTx::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, ExecTx::Op::kTransfer);
  EXPECT_EQ(decoded->key, "alice");
  EXPECT_EQ(decoded->key2, "bob");
  EXPECT_EQ(Bytes(decoded->value.begin(), decoded->value.end()), tx.value);
  EXPECT_EQ(decoded->amount, 42u);
  auto inside = [&wire](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    return b >= wire.data() && b + n <= wire.data() + wire.size();
  };
  EXPECT_TRUE(inside(decoded->key.data(), decoded->key.size()));
  EXPECT_TRUE(inside(decoded->key2.data(), decoded->key2.size()));
  EXPECT_TRUE(inside(decoded->value.data(), decoded->value.size()));
}

TEST(ExecTxTest, DecodeRejectsGarbage) {
  const Bytes short_junk = {1, 2, 3};
  EXPECT_FALSE(ExecTx::Decode(short_junk).has_value());
  const Bytes empty;
  EXPECT_FALSE(ExecTx::Decode(empty).has_value());
  Bytes wire = ExecTx::Put("k", {1}).Encode();
  wire.push_back(0);  // Trailing junk.
  EXPECT_FALSE(ExecTx::Decode(wire).has_value());
  Bytes bad_op = ExecTx::Put("k", {1}).Encode();
  bad_op[11] = 99;  // Operation byte out of range.
  EXPECT_FALSE(ExecTx::Decode(bad_op).has_value());
}

TEST(StateMachineTest, KvSemantics) {
  KvStateMachine sm;
  EXPECT_EQ(sm.Apply(ExecTx::Put("color", {0xff}).Encode()), ExecStatus::kApplied);
  EXPECT_EQ(*sm.Get("color"), (Bytes{0xff}));
  EXPECT_EQ(sm.Apply(ExecTx::Put("color", {0x00}).Encode()), ExecStatus::kApplied);
  EXPECT_EQ(*sm.Get("color"), (Bytes{0x00}));
  EXPECT_EQ(sm.Apply(ExecTx::Delete("color").Encode()), ExecStatus::kApplied);
  EXPECT_FALSE(sm.Get("color").has_value());
}

TEST(StateMachineTest, LedgerSemantics) {
  KvStateMachine sm;
  sm.Apply(ExecTx::Mint("alice", 100).Encode());
  EXPECT_EQ(sm.BalanceOf("alice"), 100u);
  EXPECT_EQ(sm.Apply(ExecTx::Transfer("alice", "bob", 30).Encode()), ExecStatus::kApplied);
  EXPECT_EQ(sm.BalanceOf("alice"), 70u);
  EXPECT_EQ(sm.BalanceOf("bob"), 30u);
  // Overdraft rejected, balances untouched.
  EXPECT_EQ(sm.Apply(ExecTx::Transfer("alice", "bob", 1000).Encode()),
            ExecStatus::kRejectedInsufficient);
  EXPECT_EQ(sm.BalanceOf("alice"), 70u);
  EXPECT_EQ(sm.BalanceOf("bob"), 30u);
  // Transfers from unknown accounts rejected.
  EXPECT_EQ(sm.Apply(ExecTx::Transfer("carol", "bob", 1).Encode()),
            ExecStatus::kRejectedInsufficient);
  EXPECT_EQ(sm.rejected(), 2u);
}

TEST(StateMachineTest, MalformedTransactionsAffectDigestDeterministically) {
  KvStateMachine a, b;
  Bytes junk = {9, 9, 9};
  EXPECT_EQ(a.Apply(junk), ExecStatus::kRejectedMalformed);
  EXPECT_EQ(b.Apply(junk), ExecStatus::kRejectedMalformed);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

// The length prefix keeps the record stream injective. Unframed, `{9}`
// rejected twice and `{9, 1, 0, 9}` rejected once would hash the same bytes,
// `9 1 0 9 1 0` (wire, status kRejectedMalformed, phase kWhole).
TEST(StateMachineTest, FramingSeparatesRecordStreamsThatWouldConcatenateAlike) {
  KvStateMachine twice, once;
  const Bytes nine = {9};
  const Bytes nine_as_two_records = {9, static_cast<uint8_t>(ExecStatus::kRejectedMalformed),
                                     static_cast<uint8_t>(ExecPhase::kWhole), 9};
  EXPECT_EQ(twice.Apply(nine), ExecStatus::kRejectedMalformed);
  EXPECT_EQ(twice.Apply(nine), ExecStatus::kRejectedMalformed);
  EXPECT_EQ(once.Apply(nine_as_two_records), ExecStatus::kRejectedMalformed);
  EXPECT_NE(twice.state_digest(), once.state_digest());
}

// A read finalizes a copy of the running hash: reading after every
// transaction leaves the same final digest as reading once at the end.
TEST(StateMachineTest, ReadingTheDigestNeverChangesLaterDigests) {
  KvStateMachine reads_every_tx, reads_once;
  const KvStateMachine empty;
  std::vector<Digest> seen = {reads_every_tx.state_digest()};
  for (int i = 0; i < 50; ++i) {
    const Bytes tx = (i % 2 == 0) ? ExecTx::Mint("acct" + std::to_string(i % 3), i).Encode()
                                  : ExecTx::Transfer("acct0", "acct1", 1).Encode();
    reads_every_tx.Apply(tx);
    reads_once.Apply(tx);
    seen.push_back(reads_every_tx.state_digest());
    EXPECT_EQ(reads_every_tx.state_digest(), seen.back()) << "tx " << i;
  }
  EXPECT_EQ(reads_every_tx.state_digest(), reads_once.state_digest());
  EXPECT_EQ(seen.front(), empty.state_digest());
  EXPECT_EQ(std::set<Digest>(seen.begin(), seen.end()).size(), seen.size());
}

TEST(StateMachineTest, DigestReflectsSequence) {
  KvStateMachine a, b;
  Bytes tx1 = ExecTx::Mint("x", 1).Encode();
  Bytes tx2 = ExecTx::Mint("y", 2).Encode();
  a.Apply(tx1);
  a.Apply(tx2);
  b.Apply(tx2);
  b.Apply(tx1);
  // Different order -> different state digest (it certifies the sequence)
  // even though the final snapshot is the same.
  EXPECT_NE(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.ComputeSnapshotDigest(), b.ComputeSnapshotDigest());
}

// The snapshot covers both books in ascending key order, so it depends on
// their contents only, never on the order the keys arrived in (the books are
// hash tables whose slot order does depend on it).
TEST(StateMachineTest, SnapshotAndTotalBalanceIgnoreInsertionOrder) {
  std::vector<Bytes> txs;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(ExecTx::Mint("acct" + std::to_string(i), 1000 + i).Encode());
    txs.push_back(ExecTx::Put("key" + std::to_string(i),
                              {static_cast<uint8_t>(i), static_cast<uint8_t>(7 * i)})
                      .Encode());
  }
  KvStateMachine forward, backward;
  for (const Bytes& tx : txs) {
    forward.Apply(tx);
  }
  for (auto it = txs.rbegin(); it != txs.rend(); ++it) {
    backward.Apply(*it);
  }
  for (KvStateMachine* sm : {&forward, &backward}) {
    sm->Apply(ExecTx::Transfer("acct3", "fresh", 500).Encode());
    sm->Apply(ExecTx::Delete("key7").Encode());
  }
  EXPECT_NE(forward.state_digest(), backward.state_digest());
  EXPECT_EQ(forward.ComputeSnapshotDigest(), backward.ComputeSnapshotDigest());
  EXPECT_EQ(forward.total_balance(), backward.total_balance());
  EXPECT_EQ(forward.total_balance(), forward.minted());
  EXPECT_EQ(forward.accounts(), 41u);
  EXPECT_EQ(forward.keys(), 39u);
  // The snapshot bytes are those of the ordered-map books this state machine
  // had before its books were hashed.
  const Digest snapshot = forward.ComputeSnapshotDigest();
  EXPECT_EQ(ToHex(snapshot.data(), snapshot.size()), kPinnedSnapshot);
}

TEST(StateMachineTest, ReplicasAgreeOnIdenticalSequences) {
  KvStateMachine a, b;
  for (int i = 0; i < 100; ++i) {
    Bytes tx = (i % 3 == 0) ? ExecTx::Mint("acct" + std::to_string(i % 7), i).Encode()
               : (i % 3 == 1)
                   ? ExecTx::Put("key" + std::to_string(i % 5), {static_cast<uint8_t>(i)}).Encode()
                   : ExecTx::Transfer("acct0", "acct1", 1).Encode();
    a.Apply(tx);
    b.Apply(tx);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.ComputeSnapshotDigest(), b.ComputeSnapshotDigest());
  EXPECT_EQ(a.applied(), b.applied());
}

TEST(StateMachineTest, ApplyingADecodedTransactionMatchesApplyingItsWireBytes) {
  KvStateMachine from_wire, from_decoded;
  for (int i = 0; i < 100; ++i) {
    const Bytes tx = (i % 5 == 0)   ? ExecTx::Mint("acct" + std::to_string(i % 3), i).Encode()
                     : (i % 5 == 1) ? ExecTx::Put("key" + std::to_string(i % 4), {1}).Encode()
                     : (i % 5 == 2) ? ExecTx::Delete("key" + std::to_string(i % 4)).Encode()
                     : (i % 5 == 3) ? ExecTx::Transfer("acct0", "acct2", 7).Encode()
                                    : ExecTx::Noop(i).Encode();
    const ExecStatus status = from_wire.Apply(tx);
    EXPECT_EQ(from_decoded.Apply(tx, *ExecTx::Decode(tx)), status) << "tx " << i;
    EXPECT_EQ(from_decoded.state_digest(), from_wire.state_digest()) << "tx " << i;
  }
  EXPECT_GT(from_wire.rejected(), 0u);
  EXPECT_EQ(from_decoded.applied(), from_wire.applied());
  EXPECT_EQ(from_decoded.rejected(), from_wire.rejected());
  EXPECT_EQ(from_decoded.ComputeSnapshotDigest(), from_wire.ComputeSnapshotDigest());
}

// ----------------------------------------------- single-lane ShardedExecutor

TEST(ExecutorTest, ExecutesHeadersInOrder) {
  std::map<Digest, std::shared_ptr<const Batch>> store;
  ShardedExecutor executor(1, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });
  const KvStateMachine& sm = executor.lane(0);

  auto make_batch = [&store](const std::vector<Bytes>& txs) {
    std::shared_ptr<const Batch> batch = SealTxs(txs);
    Digest d = batch->ComputeDigest();
    store[d] = batch;
    BatchRef ref;
    ref.digest = d;
    ref.num_txs = batch->num_txs();
    return ref;
  };

  auto header1 = std::make_shared<BlockHeader>();
  header1->round = 1;
  header1->batches.push_back(make_batch({ExecTx::Mint("a", 10).Encode()}));
  auto header2 = std::make_shared<BlockHeader>();
  header2->round = 2;
  header2->batches.push_back(make_batch({ExecTx::Transfer("a", "b", 4).Encode()}));

  executor.OnCommittedHeader(header1);
  executor.OnCommittedHeader(header2);
  EXPECT_EQ(executor.executed_headers(), 2u);
  EXPECT_EQ(sm.BalanceOf("a"), 6u);
  EXPECT_EQ(sm.BalanceOf("b"), 4u);
}

TEST(ExecutorTest, DefersOnMissingBatchThenPreservesOrder) {
  std::map<Digest, std::shared_ptr<const Batch>> store;
  ShardedExecutor executor(1, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });
  const KvStateMachine& sm = executor.lane(0);

  // Header 1 references a batch whose content arrives late; header 2's data
  // is ready. Execution must wait and then run 1 before 2.
  auto batch1 = SealTxs({ExecTx::Mint("a", 5).Encode()});
  Digest d1 = batch1->ComputeDigest();
  auto batch2 = SealTxs({ExecTx::Transfer("a", "b", 5).Encode()});
  Digest d2 = batch2->ComputeDigest();
  store[d2] = batch2;

  auto header1 = std::make_shared<BlockHeader>();
  header1->round = 1;
  BatchRef ref1;
  ref1.digest = d1;
  header1->batches.push_back(ref1);
  auto header2 = std::make_shared<BlockHeader>();
  header2->round = 2;
  BatchRef ref2;
  ref2.digest = d2;
  header2->batches.push_back(ref2);

  executor.OnCommittedHeader(header1);
  executor.OnCommittedHeader(header2);
  EXPECT_EQ(executor.executed_headers(), 0u);  // Blocked on batch1's data.
  EXPECT_EQ(executor.pending_headers(), 2u);

  store[d1] = batch1;
  executor.RetryPending();
  EXPECT_EQ(executor.executed_headers(), 2u);
  // The transfer succeeded only because the mint executed first.
  EXPECT_EQ(sm.BalanceOf("b"), 5u);
  EXPECT_EQ(sm.rejected(), 0u);
}

TEST(ExecutorTest, PendingQueueDrainsInCommitOrderAcrossRetries) {
  std::map<Digest, std::shared_ptr<const Batch>> store;
  ShardedExecutor executor(1, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });
  const KvStateMachine& sm = executor.lane(0);

  // Three headers whose batch data arrives in reverse order. Each
  // RetryPending drains exactly the prefix of the commit order whose data is
  // available — never a later header ahead of an earlier one.
  std::vector<std::shared_ptr<const Batch>> batches;
  std::vector<std::shared_ptr<BlockHeader>> headers;
  for (int i = 0; i < 3; ++i) {
    auto batch = SealTxs({ExecTx::Mint("acct", 10).Encode(),
                          ExecTx::Put("k" + std::to_string(i), {uint8_t(i)}).Encode()});
    batches.push_back(batch);
    auto header = std::make_shared<BlockHeader>();
    header->round = static_cast<Round>(i + 1);
    BatchRef ref;
    ref.digest = batch->ComputeDigest();
    header->batches.push_back(ref);
    headers.push_back(header);
    executor.OnCommittedHeader(header);
  }
  EXPECT_EQ(executor.executed_headers(), 0u);
  EXPECT_EQ(executor.pending_headers(), 3u);

  store[batches[2]->ComputeDigest()] = batches[2];
  executor.RetryPending();
  EXPECT_EQ(executor.executed_headers(), 0u);  // Head of the queue still blocked.
  EXPECT_EQ(executor.pending_headers(), 3u);

  store[batches[0]->ComputeDigest()] = batches[0];
  executor.RetryPending();
  EXPECT_EQ(executor.executed_headers(), 1u);  // Drains exactly the ready prefix.
  EXPECT_EQ(executor.pending_headers(), 2u);

  store[batches[1]->ComputeDigest()] = batches[1];
  executor.RetryPending();
  EXPECT_EQ(executor.executed_headers(), 3u);
  EXPECT_EQ(executor.pending_headers(), 0u);
  EXPECT_EQ(sm.BalanceOf("acct"), 30u);
}

TEST(ExecutorTest, AppliedAndRejectedCountersAreSplit) {
  std::map<Digest, std::shared_ptr<const Batch>> store;
  ShardedExecutor executor(1, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });

  auto batch = SealTxs({ExecTx::Mint("a", 5).Encode(),               // Applied.
                        ExecTx::Transfer("a", "b", 3).Encode(),      // Applied.
                        ExecTx::Transfer("ghost", "b", 1).Encode(),  // Rejected: unfunded.
                        Bytes{9, 9, 9}});                            // Rejected: malformed.
  store[batch->ComputeDigest()] = batch;
  auto header = std::make_shared<BlockHeader>();
  header->round = 1;
  BatchRef ref;
  ref.digest = batch->ComputeDigest();
  header->batches.push_back(ref);
  executor.OnCommittedHeader(header);

  // The old lumped executed-txs counter is gone; both components surface.
  EXPECT_EQ(executor.applied_txs(), 2u);
  EXPECT_EQ(executor.rejected_txs(), 2u);
}

// ------------------------------------------------- end-to-end replication

TEST(ExecClusterTest, ReplicatedExecutionAgreesAcrossValidators) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 99;
  Cluster cluster(config);

  std::vector<std::unique_ptr<ShardedExecutor>> executors;
  for (ValidatorId v = 0; v < 4; ++v) {
    Worker* worker = cluster.worker(v, 0);
    executors.push_back(std::make_unique<ShardedExecutor>(
        1, [worker](const BatchRef& ref) { return worker->GetBatch(ref.digest); }));
    ShardedExecutor* executor = executors.back().get();
    cluster.tusk(v)->add_on_commit([executor](const Tusk::Committed& committed) {
      executor->OnCommittedHeader(committed.header);
      executor->RetryPending();
    });
  }
  cluster.Start();

  // Clients at different validators: mints then cross-account transfers.
  cluster.worker(0, 0)->SubmitBlock({ExecTx::Mint("alice", 1000).Encode()});
  cluster.worker(1, 0)->SubmitBlock({ExecTx::Mint("bob", 500).Encode()});
  cluster.scheduler().RunUntil(Seconds(4));
  for (int i = 0; i < 10; ++i) {
    cluster.worker(i % 4, 0)->SubmitBlock(
        {ExecTx::Transfer(i % 2 == 0 ? "alice" : "bob", i % 2 == 0 ? "bob" : "alice", 10)
             .Encode()});
    cluster.scheduler().RunUntil(Seconds(5 + i));
  }
  cluster.scheduler().RunUntil(Seconds(25));

  // Every replica executed everything, with identical state digests.
  const KvStateMachine& first = executors[0]->lane(0);
  ASSERT_GT(first.applied(), 10u);
  for (ValidatorId v = 1; v < 4; ++v) {
    EXPECT_EQ(executors[v]->lane(0).state_digest(), first.state_digest()) << "replica " << v;
    EXPECT_EQ(executors[v]->lane(0).applied(), first.applied());
  }
  // Conservation: total supply is what was minted.
  EXPECT_EQ(first.BalanceOf("alice") + first.BalanceOf("bob"), 1500u);
}

}  // namespace
}  // namespace nt
