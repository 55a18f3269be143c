#include "src/narwhal/worker.h"

#include "src/common/logging.h"

namespace nt {

BatchMaker::BatchMaker(ValidatorId author, WorkerId worker, uint64_t batch_size_bytes,
                       TimeDelta max_batch_delay, Timers* timers, BatchDirectory* directory,
                       OnSealed on_sealed)
    : author_(author),
      worker_(worker),
      batch_size_bytes_(batch_size_bytes),
      max_batch_delay_(max_batch_delay),
      timers_(timers),
      directory_(directory),
      on_sealed_(std::move(on_sealed)),
      pending_(author, worker) {}

void BatchMaker::AddLoad(uint64_t num_txs, uint64_t bytes, std::span<const TxSample> samples) {
  pending_.AddLoad(num_txs, bytes);
  Admit(samples);
}

void BatchMaker::AddTx(Batch::TxView tx, std::span<const TxSample> samples) {
  pending_.AddTx(tx);
  Admit(samples);
}

void BatchMaker::Admit(std::span<const TxSample> samples) {
  for (const TxSample& sample : samples) {
    pending_.AddSample(sample);
  }
  if (batch_timer_ == Scheduler::kInvalidTimer) {
    batch_timer_ = timers_->ScheduleAfter(max_batch_delay_, [this] { MaybeSeal(true); });
  }
  MaybeSeal(false);
}

Digest BatchMaker::SealBlock(const std::vector<Bytes>& txs) {
  // Flush any unrelated pending payload first so the returned digest covers
  // exactly this block. This drops the armed timer without cancelling it, so
  // it later force-seals whatever is pending then. The fix, cancelling
  // `batch_timer_` here, is one line; it moves event hashes, so it waits for
  // ROADMAP's liveness re-pin.
  MaybeSeal(/*force=*/true);
  for (const Bytes& tx : txs) {
    pending_.AddTx(tx);
  }
  return Seal();
}

void BatchMaker::MaybeSeal(bool force) {
  if (force) {
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  if (pending_.num_txs() == 0 || (!force && pending_.payload_bytes() < batch_size_bytes_)) {
    return;
  }
  Seal();
}

Digest BatchMaker::Seal() {
  if (batch_timer_ != Scheduler::kInvalidTimer) {
    timers_->Cancel(batch_timer_);
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  std::shared_ptr<const Batch> batch = pending_.Seal(next_seq_++);
  Digest digest = batch->ComputeDigest();
  ++batches_sealed_;
  directory_->Register(digest, BatchDirectory::Info{author_, batch->num_txs(),
                                                    batch->payload_bytes(), batch->samples()});
  NT_TRACE(tracer_, OnBatchSealed(author_, worker_, digest, batch->samples(), timers_->now()));
  on_sealed_(batch, digest);
  return digest;
}

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
      maker_(validator, worker_id, config.batch_size_bytes, config.max_batch_delay, &timers_,
             directory,
             [this](const std::shared_ptr<const Batch>& batch, const Digest& digest) {
               StoreBatch(batch, digest);
               DisseminateBatch(batch, digest);
             }),
      seen_txs_(config.dedup_window),
      timers_(network->scheduler()) {}

void Worker::Recover() {
  store_->ForEach([this](const Digest&, const SharedBytes& value) {
    std::optional<Batch> batch = Batch::Decode(value);
    if (batch.has_value() && batch->author() == validator_ && batch->worker() == worker_id_) {
      maker_.ResumeAfter(batch->seq());
    }
  });
}

void Worker::SubmitTransaction(uint64_t size_bytes, std::optional<TxSample> sample) {
  maker_.AddLoad(1, size_bytes, BatchMaker::SamplesOf(sample));
}

void Worker::SubmitTransaction(Bytes payload, std::optional<TxSample> sample) {
  // Mir-BFT-style hash de-duplication (paper §8.4): resubmitted payloads
  // within the window are dropped before they cost any bandwidth.
  if (config_.dedup_window > 0 && !seen_txs_.Admit(Sha256::Hash(payload))) {
    ++duplicate_txs_dropped_;
    return;
  }
  maker_.AddTx(payload, BatchMaker::SamplesOf(sample));
}

Digest Worker::SubmitBlock(std::vector<Bytes> txs) { return maker_.SealBlock(txs); }

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
}

std::shared_ptr<const Batch> Worker::GetBatch(const Digest& digest) const {
  std::optional<Batch> batch = Batch::Decode(store_->Get(digest));
  return batch.has_value() ? std::make_shared<const Batch>(std::move(*batch)) : nullptr;
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
        if (!store_->Contains(batch_msg.digest)) {
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
          const BatchRef ref{ack.digest, worker_id_, flight.batch->num_txs(),
                             flight.batch->payload_bytes()};
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
        if (std::shared_ptr<const Batch> batch = GetBatch(request.digest)) {
          network_->Send(net_id_, from,
                         std::make_shared<MsgBatchResponse>(std::move(batch), request.digest));
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
