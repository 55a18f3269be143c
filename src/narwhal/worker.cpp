#include "src/narwhal/worker.h"

#include <algorithm>

#include "src/common/logging.h"

namespace nt {

Worker::Worker(ValidatorId validator, WorkerId worker_id, const Committee& committee,
               const NarwhalConfig& config, Network* network, const Topology* topology,
               Store* store, BatchDirectory* directory)
    : validator_(validator),
      worker_id_(worker_id),
      committee_(committee),
      config_(config),
      network_(network),
      topology_(topology),
      store_(store),
      directory_(directory),
      pending_(validator, worker_id),
      timers_(network->scheduler()) {}

void Worker::OnStart() {}

void Worker::Recover() {
  // The stored buffers are adopted as they are: recovery copies no bytes.
  store_->ForEach([this](const Digest& digest, const SharedBytes& value) {
    std::optional<Batch> batch = Batch::Decode(value);
    if (!batch.has_value()) {
      return;
    }
    if (batch->author() == validator_ && batch->worker() == worker_id_) {
      // Never reuse a pre-crash sequence number: a fresh batch with a
      // recycled seq could collide digests with a batch peers already hold.
      next_seq_ = std::max(next_seq_, batch->seq() + 1);
    }
    batches_[digest] = std::make_shared<const Batch>(std::move(*batch));
  });
}

void Worker::SubmitTransaction(uint64_t size_bytes, std::optional<TxSample> sample) {
  pending_.AddLoad(1, size_bytes);
  Admit(sample);
}

void Worker::Admit(const std::optional<TxSample>& sample) {
  if (sample.has_value()) {
    pending_.AddSample(*sample);
  }
  if (batch_timer_ == Scheduler::kInvalidTimer) {
    batch_timer_ = timers_.ScheduleAfter(config_.max_batch_delay, [this] { MaybeSealBatch(true); });
  }
  MaybeSealBatch(false);
}

void Worker::SubmitTransaction(Bytes payload, std::optional<TxSample> sample) {
  if (config_.dedup_window > 0) {
    // Mir-BFT-style hash de-duplication (paper §8.4): resubmitted payloads
    // within the window are dropped before they cost any bandwidth.
    Digest tx_digest = Sha256::Hash(payload);
    if (!seen_txs_.insert(tx_digest)) {
      ++duplicate_txs_dropped_;
      return;
    }
    seen_order_.push_back(tx_digest);
    if (seen_order_.size() > config_.dedup_window) {
      seen_txs_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
  }
  pending_.AddTx(payload);
  Admit(sample);
}

Digest Worker::SubmitBlock(std::vector<Bytes> txs) {
  // Flush any unrelated pending payload first so the returned digest covers
  // exactly this block.
  MaybeSealBatch(/*force=*/true);
  for (const Bytes& tx : txs) {
    pending_.AddTx(tx);
  }
  return SealBatch();
}

void Worker::MaybeSealBatch(bool force) {
  if (force) {
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  if (pending_.num_txs() == 0) {
    return;
  }
  if (!force && pending_.payload_bytes() < config_.batch_size_bytes) {
    return;
  }
  SealBatch();
}

Digest Worker::SealBatch() {
  if (batch_timer_ != Scheduler::kInvalidTimer) {
    timers_.Cancel(batch_timer_);
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  std::shared_ptr<const Batch> batch = pending_.Seal(next_seq_++);
  Digest digest = batch->ComputeDigest();
  ++batches_sealed_;

  BatchDirectory::Info info;
  info.author = validator_;
  info.worker = worker_id_;
  info.num_txs = batch->num_txs();
  info.payload_bytes = batch->payload_bytes();
  info.sealed_at = network_->scheduler()->now();
  info.samples = batch->samples();
  directory_->Register(digest, std::move(info));

  NT_TRACE(tracer_, OnBatchSealed(validator_, worker_id_, digest, batch->samples(),
                                  network_->scheduler()->now()));

  StoreBatch(batch, digest);
  DisseminateBatch(batch, digest);
  return digest;
}

void Worker::StoreBatch(const std::shared_ptr<const Batch>& batch, const Digest& digest) {
  if (store_->Contains(digest)) {
    return;
  }
  // Every validator's store holds the sealing worker's buffer itself: the
  // simulated disks share one copy of the batch, as the simulated network
  // shares one Batch.
  store_->Put(digest, batch->bytes());
  // Sync-on-seal: every storage ack derived from this batch (and the
  // availability certificate built from 2f+1 such acks) must mean "on disk",
  // not just in the page cache, or a crash-recovery could lose a batch the
  // DAG references. The paper's availability argument (§4.2) needs exactly
  // this: a certificate of availability is only as strong as the weakest
  // acked copy.
  store_->Sync();
  batches_[digest] = batch;
}

std::shared_ptr<const Batch> Worker::GetBatch(const Digest& digest) const {
  const std::shared_ptr<const Batch>* batch = batches_.find(digest);
  return batch == nullptr ? nullptr : *batch;
}

void Worker::DisseminateBatch(const std::shared_ptr<const Batch>& batch, const Digest& digest) {
  InFlight& flight = in_flight_[digest];
  flight.batch = batch;
  flight.ackers.insert(validator_);  // Self-storage counts.

  auto msg = std::make_shared<MsgBatch>(batch, digest);
  for (ValidatorId v = 0; v < committee_.size(); ++v) {
    if (v == validator_) {
      continue;
    }
    network_->Send(net_id_, topology_->worker_of[v][worker_id_], msg);
  }
  // The quorum-completing ack cancels the retry before erasing the entry.
  flight.retry_timer = timers_.ScheduleRetry(
      kBatchResend, 0, [this, digest](uint32_t) { return RetryBatch(digest); },
      &flight.retry_timer);
}

bool Worker::RetryBatch(const Digest& digest) {
  auto it = in_flight_.find(digest);
  if (it == in_flight_.end()) {
    return false;
  }
  InFlight& flight = it->second;
  auto msg = std::make_shared<MsgBatch>(flight.batch, digest);
  uint64_t resent = 0;
  for (ValidatorId v = 0; v < committee_.size(); ++v) {
    if (flight.ackers.count(v) != 0) {
      continue;
    }
    network_->Send(net_id_, topology_->worker_of[v][worker_id_], msg);
    ++resent;
  }
  NT_TRACE(tracer_, IncrRetryRound("batch_retry", digest, resent));
  return true;
}

bool Worker::IsOwnPrimary(uint32_t from) const {
  return from == topology_->primary_of[validator_];
}

void Worker::OnMessage(uint32_t from, const MessagePtr& msg) {
  Dispatch(
      Handles{}, *msg,
      [&](const MsgBatch& batch_msg) {
        // A peer worker streams a batch: store it, acknowledge, report to our
        // primary so it can validate headers referencing it.
        bool known = store_->Contains(batch_msg.digest);
        if (!known) {
          StoreBatch(batch_msg.batch, batch_msg.digest);
          fetching_.erase(batch_msg.digest);
          network_->Send(net_id_, topology_->primary_of[validator_],
                         std::make_shared<MsgBatchStored>(batch_msg.digest));
        }
        network_->Send(net_id_, from, std::make_shared<MsgBatchAck>(batch_msg.digest, worker_id_));
      },
      [&](const MsgBatchAck& ack) {
        auto it = in_flight_.find(ack.digest);
        if (it == in_flight_.end()) {
          return;  // Already reached quorum (late ack).
        }
        auto role = topology_->role_of.find(from);
        if (role == topology_->role_of.end()) {
          return;
        }
        InFlight& flight = it->second;
        flight.ackers.insert(role->second.validator);
        if (flight.ackers.size() >= committee_.quorum_threshold()) {
          timers_.Cancel(flight.retry_timer);
          BatchRef ref;
          ref.digest = ack.digest;
          ref.worker = worker_id_;
          ref.num_txs = flight.batch->num_txs();
          ref.payload_bytes = flight.batch->payload_bytes();
          in_flight_.erase(it);
          ++batches_acked_;
          NT_TRACE(tracer_, OnBatchQuorum(validator_, ack.digest, network_->scheduler()->now()));
          network_->Send(net_id_, topology_->primary_of[validator_],
                         std::make_shared<MsgBatchReady>(ref));
        }
      },
      [&](const MsgFetchBatch& fetch) {
        if (IsOwnPrimary(from)) {
          HandleFetch(fetch);
        }
      },
      [&](const MsgBatchRequest& request) {
        if (const std::shared_ptr<const Batch>* batch = batches_.find(request.digest)) {
          network_->Send(net_id_, from, std::make_shared<MsgBatchResponse>(*batch, request.digest));
        }
      },
      [&](const MsgBatchResponse& response) {
        if (fetching_.count(response.digest) == 0) {
          return;  // Unsolicited or duplicate response.
        }
        if (response.batch->ComputeDigest() != response.digest) {
          LOG_WARN() << "batch response digest mismatch";
          return;
        }
        fetching_.erase(response.digest);
        StoreBatch(response.batch, response.digest);
        network_->Send(net_id_, topology_->primary_of[validator_],
                       std::make_shared<MsgBatchStored>(response.digest));
      });
}

void Worker::HandleFetch(const MsgFetchBatch& fetch) {
  if (store_->Contains(fetch.digest)) {
    network_->Send(net_id_, topology_->primary_of[validator_],
                   std::make_shared<MsgBatchStored>(fetch.digest));
    return;
  }
  if (!fetching_.insert(fetch.digest).second) {
    return;  // Already being fetched.
  }
  // Pull from the batch author's matching worker first (paper §4.2); rotate
  // through other validators on timeout.
  network_->Send(net_id_, topology_->worker_of[fetch.batch_author][worker_id_],
                 std::make_shared<MsgBatchRequest>(fetch.digest));
  ValidatorId author = fetch.batch_author;
  timers_.ScheduleRetry(kBatchFetch, 0, [this, digest = fetch.digest, author](uint32_t attempt) {
    return RetryFetch(digest, author, attempt + 1);
  });
}

bool Worker::RetryFetch(const Digest& digest, ValidatorId author, uint32_t probe) {
  if (fetching_.count(digest) == 0) {
    return false;  // Arrived meanwhile.
  }
  // At least f+1 honest workers store a quorum-acked batch; the expected
  // number of probes to hit one is O(1) (paper §4.1).
  ValidatorId target = (author + probe) % committee_.size();
  if (target == validator_) {
    target = (target + 1) % committee_.size();
  }
  network_->Send(net_id_, topology_->worker_of[target][worker_id_],
                 std::make_shared<MsgBatchRequest>(digest));
  return true;
}

}  // namespace nt
