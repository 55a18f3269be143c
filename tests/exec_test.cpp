// Execution engine: transaction codec, state-machine semantics and
// determinism, executor ordering (including deferred batch data), and
// end-to-end replicated execution over a live Tusk cluster with state-digest
// agreement across replicas.
#include "src/exec/executor.h"
#include "src/exec/state_machine.h"

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

TEST(ExecTxTest, EncodeDecodeRoundTrip) {
  ExecTx tx = ExecTx::Transfer("alice", "bob", 42);
  auto decoded = ExecTx::Decode(tx.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, ExecTx::Op::kTransfer);
  EXPECT_EQ(decoded->key, "alice");
  EXPECT_EQ(decoded->key2, "bob");
  EXPECT_EQ(decoded->amount, 42u);
}

TEST(ExecTxTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(ExecTx::Decode({1, 2, 3}).has_value());
  EXPECT_FALSE(ExecTx::Decode({}).has_value());
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

TEST(StateMachineTest, DigestReflectsSequence) {
  KvStateMachine a, b;
  Bytes tx1 = ExecTx::Mint("x", 1).Encode();
  Bytes tx2 = ExecTx::Mint("y", 2).Encode();
  a.Apply(tx1);
  a.Apply(tx2);
  b.Apply(tx2);
  b.Apply(tx1);
  // Different order -> different chained digest (it certifies the sequence)
  // even though the final snapshot is the same.
  EXPECT_NE(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.ComputeSnapshotDigest(), b.ComputeSnapshotDigest());
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

// ----------------------------------------------------------------- Executor

TEST(ExecutorTest, ExecutesHeadersInOrder) {
  KvStateMachine sm;
  std::map<Digest, std::shared_ptr<const Batch>> store;
  Executor executor(&sm, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });

  auto make_batch = [&store](std::vector<Bytes> txs) {
    auto batch = std::make_shared<Batch>();
    batch->txs = std::move(txs);
    batch->num_txs = batch->txs.size();
    Digest d = batch->ComputeDigest();
    store[d] = batch;
    BatchRef ref;
    ref.digest = d;
    ref.num_txs = batch->num_txs;
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
  KvStateMachine sm;
  std::map<Digest, std::shared_ptr<const Batch>> store;
  Executor executor(&sm, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });

  // Header 1 references a batch whose content arrives late; header 2's data
  // is ready. Execution must wait and then run 1 before 2.
  auto batch1 = std::make_shared<Batch>();
  batch1->txs = {ExecTx::Mint("a", 5).Encode()};
  Digest d1 = batch1->ComputeDigest();
  auto batch2 = std::make_shared<Batch>();
  batch2->txs = {ExecTx::Transfer("a", "b", 5).Encode()};
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
  KvStateMachine sm;
  std::map<Digest, std::shared_ptr<const Batch>> store;
  Executor executor(&sm, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });

  // Three headers whose batch data arrives in reverse order. Each
  // RetryPending drains exactly the prefix of the commit order whose data is
  // available — never a later header ahead of an earlier one.
  std::vector<std::shared_ptr<Batch>> batches;
  std::vector<std::shared_ptr<BlockHeader>> headers;
  for (int i = 0; i < 3; ++i) {
    auto batch = std::make_shared<Batch>();
    batch->txs = {ExecTx::Mint("acct", 10).Encode()};
    batch->txs.push_back(ExecTx::Put("k" + std::to_string(i), {uint8_t(i)}).Encode());
    batch->num_txs = batch->txs.size();
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
  KvStateMachine sm;
  std::map<Digest, std::shared_ptr<const Batch>> store;
  Executor executor(&sm, [&store](const BatchRef& ref) {
    auto it = store.find(ref.digest);
    return it == store.end() ? nullptr : it->second;
  });

  auto batch = std::make_shared<Batch>();
  batch->txs = {ExecTx::Mint("a", 5).Encode(),           // Applied.
                ExecTx::Transfer("a", "b", 3).Encode(),  // Applied.
                ExecTx::Transfer("ghost", "b", 1).Encode(),  // Rejected: unfunded.
                Bytes{9, 9, 9}};                             // Rejected: malformed.
  batch->num_txs = batch->txs.size();
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

  std::vector<KvStateMachine> machines(4);
  std::vector<std::unique_ptr<Executor>> executors;
  for (ValidatorId v = 0; v < 4; ++v) {
    Worker* worker = cluster.worker(v, 0);
    executors.push_back(std::make_unique<Executor>(
        &machines[v],
        [worker](const BatchRef& ref) { return worker->GetBatch(ref.digest); }));
    Executor* executor = executors.back().get();
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

  // Every replica executed everything, with identical chained digests.
  ASSERT_GT(machines[0].applied(), 10u);
  for (ValidatorId v = 1; v < 4; ++v) {
    EXPECT_EQ(machines[v].state_digest(), machines[0].state_digest()) << "replica " << v;
    EXPECT_EQ(machines[v].applied(), machines[0].applied());
  }
  // Conservation: total supply is what was minted.
  EXPECT_EQ(machines[0].BalanceOf("alice") + machines[0].BalanceOf("bob"), 1500u);
}

}  // namespace
}  // namespace nt
