// Payload providers: the three mempool modes of the paper's evaluation.
//
//  - BaselineProvider  (baseline-HS): a gossiped transaction mempool; the
//    leader puts raw transactions in proposals — bulk data rides the
//    consensus critical path (§2.2's double transmission).
//  - BatchedProvider   (Batched-HS): validators seal batches as a worker does
//    and broadcast them best-effort (no availability certificates, Prism-
//    style [9]); leaders propose batch digests; validators must hold (or
//    fetch) the batches before voting — fragile under faults (§6).
//  - NarwhalProvider   (Narwhal-HS): leaders propose Narwhal certificates of
//    availability; committing one orders its entire uncommitted causal
//    history (§3.2) through the same CommitLog the DAG committers use.
//
// A provider plugs into the HotStuff core: it supplies payloads for proposals,
// checks availability before votes, and turns committed blocks into delivered
// transactions. The two HotStuff-mempool baselines report those to the
// CommitSink; Narwhal-HS delivers headers through its CommitLog's hooks
// instead. Every provider timer goes through the base class's Timers.
#ifndef SRC_HOTSTUFF_PAYLOAD_H_
#define SRC_HOTSTUFF_PAYLOAD_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/hotstuff/messages.h"
#include "src/narwhal/commit_log.h"
#include "src/narwhal/primary.h"
#include "src/narwhal/worker.h"
#include "src/net/network.h"

namespace nt {

// Reports transactions delivered by a committed block.
//   latency_owner: the validator whose local commit of these transactions
//   defines their end-to-end latency (the block proposer for baseline, the
//   batch author for batch-based modes — where the client submitted).
using CommitSink =
    std::function<void(ValidatorId latency_owner, uint64_t num_txs, uint64_t payload_bytes,
                       const std::vector<TxSample>& samples)>;

class PayloadProvider {
 public:
  explicit PayloadProvider(Scheduler* scheduler) : timers_(scheduler) {}
  virtual ~PayloadProvider() = default;

  // Builds the payload for a proposal in `view`.
  virtual HsPayload GetPayload(View view) = 0;

  // Availability check before voting. Returns true if everything referenced
  // is locally available; otherwise arranges fetching and calls `ready`
  // exactly once when it becomes available.
  virtual bool CheckPayload(const HsPayload& payload, uint32_t proposer_net_id,
                            std::function<void()> ready) = 0;

  // Delivers a committed block's payload (called once per commit, in order).
  virtual void OnCommit(const HsPayload& payload, ValidatorId block_author) = 0;

  // Mempool-mode network traffic is forwarded here by the consensus node.
  virtual void OnMessage(uint32_t from, const MessagePtr& msg) {
    (void)from;
    (void)msg;
  }
  virtual void OnStart() {}
  // Client transaction intake (a collocated load generator) for the
  // HotStuff-mempool modes. Narwhal-HS transactions enter through workers.
  virtual void Submit(uint64_t /*num_txs*/, uint64_t /*payload_bytes*/,
                      std::vector<TxSample> /*samples*/) {}

  void BindNetwork(Network* network, uint32_t own_net_id, std::vector<uint32_t> peer_net_ids) {
    network_ = network;
    net_id_ = own_net_id;
    peers_ = std::move(peer_net_ids);
  }
  void set_commit_sink(CommitSink sink) { sink_ = std::move(sink); }

 protected:
  Network* network_ = nullptr;
  uint32_t net_id_ = 0;
  std::vector<uint32_t> peers_;  // Consensus net ids of the other validators.
  CommitSink sink_;
  Timers timers_;  // Every timer of this provider.
};

// ---------------------------------------------------------------------------
// Baseline-HS
// ---------------------------------------------------------------------------

// The gossiped mempool, modeled as one logical pool shared by all in-process
// validators (gossip keeps honest pools converged); the gossip *bandwidth*
// is still charged on the wire via MsgGossipTxs. Transactions become
// proposable after a sampled gossip delay.
class SharedTxPool {
 public:
  struct Chunk {
    uint64_t num_txs = 0;
    uint64_t payload_bytes = 0;
    std::vector<TxSample> samples;
    TimePoint available_at = 0;
  };

  void Submit(Chunk chunk);
  // Pops whole chunks available at `now`, up to `max_bytes`, into `payload`.
  void Drain(TimePoint now, uint64_t max_bytes, HsPayload& payload);
  uint64_t pending_bytes() const { return pending_bytes_; }

 private:
  std::deque<Chunk> fifo_;
  uint64_t pending_bytes_ = 0;
};

class BaselineProvider : public PayloadProvider {
 public:
  BaselineProvider(Scheduler* scheduler, SharedTxPool* pool, uint64_t max_block_bytes,
                   TimeDelta gossip_interval, TimeDelta gossip_delay);

  void Submit(uint64_t num_txs, uint64_t payload_bytes, std::vector<TxSample> samples) override;

  HsPayload GetPayload(View view) override;
  bool CheckPayload(const HsPayload& payload, uint32_t proposer_net_id,
                    std::function<void()> ready) override;
  void OnCommit(const HsPayload& payload, ValidatorId block_author) override;
  void OnStart() override;

 private:
  void FlushGossip();

  SharedTxPool* pool_;
  uint64_t max_block_bytes_;
  TimeDelta gossip_interval_;
  TimeDelta gossip_delay_;
  uint64_t gossip_pending_txs_ = 0;
  uint64_t gossip_pending_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Batched-HS
// ---------------------------------------------------------------------------

class BatchedProvider : public PayloadProvider {
 public:
  // The messages OnMessage dispatches.
  using Handles = MessageList<MsgBatch, MsgBatchRequest>;

  BatchedProvider(Scheduler* scheduler, ValidatorId id, uint64_t batch_size_bytes,
                  TimeDelta max_batch_delay, uint64_t max_digests_per_block,
                  BatchDirectory* directory);

  void Submit(uint64_t num_txs, uint64_t payload_bytes, std::vector<TxSample> samples) override {
    maker_.AddLoad(num_txs, payload_bytes, samples);
  }

  HsPayload GetPayload(View view) override;
  bool CheckPayload(const HsPayload& payload, uint32_t proposer_net_id,
                    std::function<void()> ready) override;
  void OnCommit(const HsPayload& payload, ValidatorId block_author) override;
  void OnMessage(uint32_t from, const MessagePtr& msg) override;

  size_t available_batches() const { return stored_.size(); }

 private:
  uint64_t max_digests_per_block_;
  BatchDirectory* directory_;
  BatchMaker maker_;

  std::map<Digest, std::shared_ptr<const Batch>> stored_;
  // Known, stored, not-yet-committed digests in arrival order (proposal queue).
  std::deque<Digest> proposable_;
  std::set<Digest> proposable_set_;
  std::set<Digest> committed_;

  // Outstanding availability waits: proposal payload -> missing set + ready cb.
  struct Waiting {
    std::set<Digest> missing;
    std::function<void()> ready;
  };
  std::vector<Waiting> waiting_;
};

// ---------------------------------------------------------------------------
// Narwhal-HS
// ---------------------------------------------------------------------------

class NarwhalProvider : public PayloadProvider {
 public:
  NarwhalProvider(Scheduler* scheduler, Primary* primary, Round gc_depth);

  HsPayload GetPayload(View view) override;
  bool CheckPayload(const HsPayload& payload, uint32_t proposer_net_id,
                    std::function<void()> ready) override;
  void OnCommit(const HsPayload& payload, ValidatorId block_author) override;

  // The delivery path: each anchor HotStuff commits is delivered as a chain
  // of one, with the committed set, commit records and hooks of any other
  // Narwhal-based system.
  CommitLog* commit_log() { return &commit_log_; }
  // Anchors committed by consensus whose causal history is still syncing.
  size_t pending_anchor_count() const { return pending_anchors_.size(); }

  // Fired once per committed Narwhal header, in delivery order (a view of
  // the commit log's hooks without the wave fields).
  using HeaderCommitHook =
      std::function<void(const Digest& digest, const std::shared_ptr<const BlockHeader>& header)>;
  void add_on_header_commit(HeaderCommitHook hook) {
    commit_log_.add_on_commit(
        [hook = std::move(hook)](const CommitLog::Committed& c) { hook(c.digest, c.header); });
  }

 private:
  // Delivers queued anchors, strictly in order, while their causal
  // histories are complete.
  void DrainPending();

  Primary* primary_;
  CommitLog commit_log_;
  std::deque<Certificate> pending_anchors_;  // Committed by consensus, awaiting sync.
};

}  // namespace nt

#endif  // SRC_HOTSTUFF_PAYLOAD_H_
