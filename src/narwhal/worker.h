// A Narwhal worker (paper §4.2): seals client transactions into batches
// through its BatchMaker, streams batches to the matching worker of every
// other validator, collects storage acknowledgments, and hands
// quorum-acknowledged batch digests to its primary for inclusion in the next
// header. Also serves and issues batch pull requests for the synchronizer,
// from its store: the one index of every batch it holds.
#ifndef SRC_NARWHAL_WORKER_H_
#define SRC_NARWHAL_WORKER_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/common/trace.h"
#include "src/crypto/digest_table.h"
#include "src/narwhal/config.h"
#include "src/net/network.h"
#include "src/sim/timers.h"
#include "src/store/store.h"
#include "src/types/committee.h"
#include "src/types/messages.h"

namespace nt {

// Maps protocol roles to network node ids. Built by the runtime when it
// assembles a cluster.
struct Topology {
  struct NodeRole {
    enum class Kind { kPrimary, kWorker, kConsensus };
    Kind kind = Kind::kPrimary;
    ValidatorId validator = 0;
    WorkerId worker = 0;
  };

  // primary_of[v] = net id of validator v's primary.
  std::vector<uint32_t> primary_of;
  // worker_of[v][w] = net id of validator v's w-th worker.
  std::vector<std::vector<uint32_t>> worker_of;
  // Reverse map: net id -> role.
  std::map<uint32_t, NodeRole> role_of;

  uint32_t workers_per_validator() const {
    return worker_of.empty() ? 0 : static_cast<uint32_t>(worker_of[0].size());
  }
};

// Metadata every sealed batch registers with the runtime so commit-time
// accounting (throughput, sampled latency) does not need to ship payloads
// through consensus. Keyed by batch digest.
class BatchDirectory {
 public:
  struct Info {
    ValidatorId author = 0;
    uint64_t num_txs = 0;
    uint64_t payload_bytes = 0;
    std::vector<TxSample> samples;
  };

  void Register(const Digest& digest, Info info) { map_[digest] = std::move(info); }
  // The batch's metadata, or null. The pointer is valid until the next
  // Register, which may grow the table.
  const Info* Find(const Digest& digest) const { return map_.find(digest); }
  size_t size() const { return map_.size(); }

 private:
  DigestMap<Info> map_;
};

// The batch maker (paper §4.2): seals a batch once it reaches
// `batch_size_bytes` or `max_batch_delay` runs out. A worker and Batched-HS
// each seal through one, and differ only in their OnSealed.
class BatchMaker {
 public:
  // Runs once per sealed batch, after the directory knows it.
  using OnSealed = std::function<void(const std::shared_ptr<const Batch>&, const Digest&)>;

  // `timers` and `directory` are non-owning and must outlive this maker.
  BatchMaker(ValidatorId author, WorkerId worker, uint64_t batch_size_bytes,
             TimeDelta max_batch_delay, Timers* timers, BatchDirectory* directory,
             OnSealed on_sealed);

  // Attaches the cluster's tracer (nullptr = tracing off, the default).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Recovery: a fresh batch reusing a pre-crash sequence number could collide
  // digests with a batch peers already hold.
  void ResumeAfter(uint64_t seq) { next_seq_ = std::max(next_seq_, seq + 1); }

  // Adds counted-only / one explicit transaction(s) with their samples, arms
  // the delay timer if it is idle and seals if the batch is full.
  void AddLoad(uint64_t num_txs, uint64_t bytes, std::span<const TxSample> samples);
  void AddTx(Batch::TxView tx, std::span<const TxSample> samples);
  // One submission's latency sample, if any, as such a span.
  static std::span<const TxSample> SamplesOf(const std::optional<TxSample>& sample) {
    return sample ? std::span<const TxSample>(&*sample, 1) : std::span<const TxSample>();
  }

  // Seals whatever is pending, then `txs` as one batch of their own (even an
  // empty one), and returns the digest of the latter.
  Digest SealBlock(const std::vector<Bytes>& txs);

  uint64_t batches_sealed() const { return batches_sealed_; }

 private:
  void Admit(std::span<const TxSample> samples);
  void MaybeSeal(bool force);
  Digest Seal();

  ValidatorId author_;
  WorkerId worker_;
  uint64_t batch_size_bytes_;
  TimeDelta max_batch_delay_;
  Timers* timers_;
  BatchDirectory* directory_;
  OnSealed on_sealed_;
  Tracer* tracer_ = nullptr;

  Batch::Builder pending_;
  uint64_t next_seq_ = 0;
  Scheduler::TimerId batch_timer_ = Scheduler::kInvalidTimer;
  uint64_t batches_sealed_ = 0;
};

class Worker : public NetNode {
 public:
  // The messages OnMessage dispatches.
  using Handles =
      MessageList<MsgBatch, MsgBatchAck, MsgFetchBatch, MsgBatchRequest, MsgBatchResponse>;

  // `store` is non-owning: the runtime owns it and keeps it alive across
  // simulated restarts of this worker (it is the durable disk). Throws
  // std::invalid_argument if `config.dedup_window` is 2^32 - 1 or more.
  Worker(ValidatorId validator, WorkerId worker_id, const Committee& committee,
         const NarwhalConfig& config, Network* network, const Topology* topology,
         Store* store, BatchDirectory* directory);

  // Registers this worker's own net id once known.
  void set_net_id(uint32_t id) { net_id_ = id; }

  // After a crash, resumes the batch sequence past the highest own batch in
  // the store, which serves every batch as it is. Call before OnStart.
  void Recover();

  // Attaches the cluster's tracer (nullptr = tracing off, the default).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    maker_.set_tracer(tracer);
  }

  // --- client interface -------------------------------------------------------
  // Submits a transaction of `size_bytes`. If `sample` is set, its commit
  // latency will be measured. (Clients are collocated load generators; the
  // submission itself is a local call, as in the paper's benchmark setup.)
  void SubmitTransaction(uint64_t size_bytes, std::optional<TxSample> sample);

  // Explicit-payload submission used by examples and integration tests.
  void SubmitTransaction(Bytes payload, std::optional<TxSample> sample);

  // Submits a whole block of explicit transactions and seals it immediately
  // as one batch, returning the batch digest (the mempool facade's write).
  Digest SubmitBlock(std::vector<Bytes> txs);

  // --- NetNode ----------------------------------------------------------------
  void OnMessage(uint32_t from, const MessagePtr& msg) override;

  // --- introspection ----------------------------------------------------------
  const Store& store() const { return *store_; }
  uint64_t batches_sealed() const { return maker_.batches_sealed(); }
  uint64_t batches_acked() const { return batches_acked_; }
  uint64_t duplicate_txs_dropped() const { return duplicate_txs_dropped_; }
  const DigestWindow& dedup_window() const { return seen_txs_; }
  // The stored batch, adopting the store's buffer; null if it is not stored.
  std::shared_ptr<const Batch> GetBatch(const Digest& digest) const;

 private:
  void DisseminateBatch(const std::shared_ptr<const Batch>& batch, const Digest& digest);
  // Retry steps: false once a quorum acked the batch / the batch arrived.
  bool RetryBatch(const Digest& digest);
  void StoreBatch(const std::shared_ptr<const Batch>& batch, const Digest& digest);
  void HandleFetch(const MsgFetchBatch& fetch);
  bool RetryFetch(const Digest& digest, ValidatorId author, uint32_t probe);

  bool IsOwnPrimary(uint32_t from) const;

  ValidatorId validator_;
  WorkerId worker_id_;
  const Committee& committee_;
  NarwhalConfig config_;
  Network* network_;
  const Topology* topology_;
  Store* store_;
  uint32_t net_id_ = 0;
  Tracer* tracer_ = nullptr;

  // Seals submitted transactions; stores and disseminates each batch.
  BatchMaker maker_;

  // Batches awaiting a quorum of acks: digest -> (batch, ackers).
  struct InFlight {
    std::shared_ptr<const Batch> batch;
    std::set<ValidatorId> ackers;
    Scheduler::TimerId retry_timer = Scheduler::kInvalidTimer;
  };
  std::map<Digest, InFlight> in_flight_;

  // Outstanding pull requests issued on behalf of the primary.
  std::set<Digest> fetching_;

  // Sliding-window duplicate filter over explicit transaction payloads.
  DigestWindow seen_txs_;

  uint64_t batches_acked_ = 0;
  uint64_t duplicate_txs_dropped_ = 0;

  Timers timers_;  // Every timer of this worker.
};

}  // namespace nt

#endif  // SRC_NARWHAL_WORKER_H_
