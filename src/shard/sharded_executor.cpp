#include "src/shard/sharded_executor.h"

#include "src/common/seeded_bugs.h"

namespace nt {

ShardedExecutor::ShardedExecutor(uint32_t num_lanes, BatchSource source)
    : router_(num_lanes), lanes_(router_.num_shards()), source_(std::move(source)) {}

void ShardedExecutor::OnCommittedHeader(std::shared_ptr<const BlockHeader> header) {
  queue_.push_back(std::move(header));
  Drain();
}

std::vector<Digest> ShardedExecutor::LaneDigests() const {
  std::vector<Digest> out;
  out.reserve(lanes_.size());
  for (const KvStateMachine& lane : lanes_) {
    out.push_back(lane.state_digest());
  }
  return out;
}

uint64_t ShardedExecutor::applied_txs() const {
  uint64_t total = 0;
  for (const KvStateMachine& lane : lanes_) {
    total += lane.applied();
  }
  return total;
}

uint64_t ShardedExecutor::rejected_txs() const {
  uint64_t total = 0;
  for (const KvStateMachine& lane : lanes_) {
    total += lane.rejected();
  }
  return total;
}

uint64_t ShardedExecutor::minted_total() const {
  uint64_t total = 0;
  for (const KvStateMachine& lane : lanes_) {
    total += lane.minted();
  }
  return total;
}

uint64_t ShardedExecutor::total_balance() const {
  uint64_t total = 0;
  for (const KvStateMachine& lane : lanes_) {
    total += lane.total_balance();
  }
  return total;
}

void ShardedExecutor::Drain() {
  while (!queue_.empty()) {
    const std::shared_ptr<const BlockHeader>& header = queue_.front();
    // All batches must be available before any lane advances — partial
    // execution would fork replicas that receive data in different orders.
    std::vector<std::shared_ptr<const Batch>> batches;
    batches.reserve(header->batches.size());
    bool complete = true;
    for (const BatchRef& ref : header->batches) {
      std::shared_ptr<const Batch> batch = source_(ref);
      if (batch == nullptr) {
        complete = false;
        break;
      }
      batches.push_back(std::move(batch));
    }
    if (!complete) {
      return;  // Strict order: wait for data, retry later.
    }
    ExecuteHeader(batches);
    ++executed_headers_;
    const bool traced = tracer_ != nullptr && scheduler_ != nullptr;
    if (traced || !on_executed_.empty()) {
      const Digest digest = header->ComputeDigest();
      if (traced) {
        tracer_->OnExecuted(validator_, digest, scheduler_->now());
      }
      if (!on_executed_.empty()) {
        const std::vector<Digest> lanes = LaneDigests();
        for (const auto& hook : on_executed_) {
          hook(digest, lanes);
        }
      }
    }
    queue_.pop_front();
  }
}

void ShardedExecutor::ExecuteHeader(const std::vector<std::shared_ptr<const Batch>>& batches) {
  // Pass 1 — lane-local fast path, in encounter order. Cross-shard transfers
  // are deferred (still in encounter order) to the commit boundary below.
  struct CrossTransfer {
    Batch::TxView wire;  // Into a batch buffer, which `batches` keeps alive.
    ExecTx::View tx;     // Borrows `wire`.
    ShardId src;
    ShardId dst;
  };
  std::vector<CrossTransfer> cross;
  for (const auto& batch : batches) {
    for (const Batch::TxView wire : batch->txs()) {
      std::optional<ExecTx::View> tx = ExecTx::Decode(wire);
      if (!tx.has_value()) {
        // Malformed bytes have no key to route by; lane 0 records the reject
        // so the outcome still lands in exactly one lane digest.
        lanes_[0].Apply(wire);
        continue;
      }
      if (tx->op == ExecTx::Op::kTransfer) {
        ShardId src = router_.Of(tx->key);
        ShardId dst = router_.Of(tx->key2);
        if (src != dst) {
          cross.push_back({wire, *tx, src, dst});
          continue;
        }
        lanes_[src].Apply(wire, *tx);
        continue;
      }
      // kPut/kDelete/kMint route by their key; kNoop has an empty key and
      // deterministically lands wherever "" routes.
      lanes_[router_.Of(tx->key)].Apply(wire, *tx);
    }
  }
  // Pass 2 — commit boundary: deterministic two-phase apply of the deferred
  // cross-shard transfers, sequenced in encounter order. The lock epoch runs
  // per transfer (debit at the source lane decides the outcome) and only a
  // successful lock credits the destination lane, so a transfer can spend
  // single-shard state from its own header but never a sibling cross-shard
  // credit from the same boundary.
  for (const auto& [wire, tx, src, dst] : cross) {
    ++cross_shard_txs_;
    bool locked;
    if (seeded_bugs::On(SeededBug::kSkipCrossShardLock)) {
      // Seeded bug: the lock epoch (funds check + source debit) is skipped
      // outright and the credit applies unconditionally — supply inflates.
      locked = true;
    } else {
      locked = lanes_[src].LockDebit(wire, tx) == ExecStatus::kApplied;
    }
    if (locked) {
      lanes_[dst].ApplyCredit(wire, tx);
    }
  }
}

}  // namespace nt
