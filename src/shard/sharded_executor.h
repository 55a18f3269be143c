// Sharded execution over the committed header sequence — the scale-out
// execution stage the paper defers (§8.4). The key space is partitioned into
// S lanes per validator (ShardRouter), each backed by its own KvStateMachine.
// Single-shard transactions apply to their lane in encounter order (the fast
// path: lanes never synchronize for them). Cross-shard transfers are deferred
// to the commit boundary of their header and sequenced there by a
// deterministic two-phase apply — lock (funds check + debit) at the source
// lane, then credit at the destination lane — with both epochs derived purely
// from commit order, so every validator computes identical per-lane state
// digests without any extra consensus.
//
// A cross-shard transfer spends only balances established before its commit
// boundary: locks within one boundary see the lane state left by that
// header's single-shard transactions, never the credits of sibling
// cross-shard transfers that lock later in the same boundary.
#ifndef SRC_SHARD_SHARDED_EXECUTOR_H_
#define SRC_SHARD_SHARDED_EXECUTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/trace.h"
#include "src/exec/state_machine.h"
#include "src/shard/router.h"
#include "src/sim/scheduler.h"
#include "src/types/types.h"

namespace nt {

class ShardedExecutor {
 public:
  // Resolves a batch reference to its content (e.g. the local worker's
  // store); returns nullptr while the batch data has not arrived at this
  // validator yet.
  using BatchSource = std::function<std::shared_ptr<const Batch>(const BatchRef&)>;

  ShardedExecutor(uint32_t num_lanes, BatchSource source);

  // Feed committed headers in commit order. Headers whose batch data is
  // missing queue until RetryPending(): execution order never deviates from
  // commit order.
  void OnCommittedHeader(std::shared_ptr<const BlockHeader> header);
  void RetryPending() { Drain(); }

  void set_tracer(Tracer* tracer, ValidatorId validator, Scheduler* scheduler) {
    tracer_ = tracer;
    validator_ = validator;
    scheduler_ = scheduler;
  }

  // Fired after each header finishes executing (all lanes advanced, cross-
  // shard boundary processed) with the header digest and every lane's
  // state digest, in the order the hooks were added — the DST harness
  // compares these vectors across validators.
  void add_on_executed(
      std::function<void(const Digest& header_digest, const std::vector<Digest>& lane_digests)>
          hook) {
    on_executed_.push_back(std::move(hook));
  }

  uint32_t num_lanes() const { return static_cast<uint32_t>(lanes_.size()); }
  const KvStateMachine& lane(ShardId s) const { return lanes_[s]; }
  const ShardRouter& router() const { return router_; }
  std::vector<Digest> LaneDigests() const;

  uint64_t executed_headers() const { return executed_headers_; }
  size_t pending_headers() const { return queue_.size(); }
  // Outcome counters summed over lanes. A cross-shard transfer counts once,
  // at its source lane (the lock decides the outcome).
  uint64_t applied_txs() const;
  uint64_t rejected_txs() const;
  // Cross-shard transfers sequenced at commit boundaries so far.
  uint64_t cross_shard_txs() const { return cross_shard_txs_; }
  // Conservation-of-balance accounting across all lanes: with honest
  // execution Σ lane balances == Σ minted supply at every commit boundary.
  uint64_t minted_total() const;
  uint64_t total_balance() const;

 private:
  void Drain();
  void ExecuteHeader(const std::vector<std::shared_ptr<const Batch>>& batches);

  ShardRouter router_;
  std::vector<KvStateMachine> lanes_;
  BatchSource source_;
  std::deque<std::shared_ptr<const BlockHeader>> queue_;
  uint64_t executed_headers_ = 0;
  uint64_t cross_shard_txs_ = 0;
  std::vector<std::function<void(const Digest&, const std::vector<Digest>&)>> on_executed_;
  Tracer* tracer_ = nullptr;
  ValidatorId validator_ = 0;
  Scheduler* scheduler_ = nullptr;
};

}  // namespace nt

#endif  // SRC_SHARD_SHARDED_EXECUTOR_H_
