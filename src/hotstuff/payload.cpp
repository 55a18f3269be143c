#include "src/hotstuff/payload.h"

#include "src/common/logging.h"

namespace nt {

// ------------------------------------------------------------- SharedTxPool

void SharedTxPool::Submit(Chunk chunk) {
  pending_bytes_ += chunk.payload_bytes;
  fifo_.push_back(std::move(chunk));
}

void SharedTxPool::Drain(TimePoint now, uint64_t max_bytes, HsPayload& payload) {
  uint64_t taken = 0;
  while (!fifo_.empty() && taken + fifo_.front().payload_bytes <= max_bytes &&
         fifo_.front().available_at <= now) {
    Chunk& chunk = fifo_.front();
    taken += chunk.payload_bytes;
    payload.num_txs += chunk.num_txs;
    payload.payload_bytes += chunk.payload_bytes;
    payload.samples.insert(payload.samples.end(), chunk.samples.begin(), chunk.samples.end());
    pending_bytes_ -= chunk.payload_bytes;
    fifo_.pop_front();
  }
}

// --------------------------------------------------------- BaselineProvider

BaselineProvider::BaselineProvider(ValidatorId id, SharedTxPool* pool, uint64_t max_block_bytes,
                                   TimeDelta gossip_interval, TimeDelta gossip_delay)
    : id_(id),
      pool_(pool),
      max_block_bytes_(max_block_bytes),
      gossip_interval_(gossip_interval),
      gossip_delay_(gossip_delay) {}

void BaselineProvider::OnStart() { FlushGossip(); }

void BaselineProvider::Submit(uint64_t num_txs, uint64_t payload_bytes,
                              std::vector<TxSample> samples) {
  SharedTxPool::Chunk chunk;
  chunk.num_txs = num_txs;
  chunk.payload_bytes = payload_bytes;
  chunk.samples = std::move(samples);
  // The transaction is proposable once gossip has spread it.
  chunk.available_at = network_->scheduler()->now() + gossip_delay_;
  pool_->Submit(std::move(chunk));
  gossip_pending_txs_ += num_txs;
  gossip_pending_bytes_ += payload_bytes;
}

void BaselineProvider::FlushGossip() {
  if (gossip_pending_bytes_ > 0) {
    auto msg = std::make_shared<MsgGossipTxs>(gossip_pending_txs_, gossip_pending_bytes_);
    for (uint32_t peer : peers_) {
      network_->Send(net_id_, peer, msg);
    }
    gossip_pending_txs_ = 0;
    gossip_pending_bytes_ = 0;
  }
  network_->scheduler()->ScheduleAfter(gossip_interval_, [this] { FlushGossip(); });
}

HsPayload BaselineProvider::GetPayload(View) {
  HsPayload payload;
  payload.kind = HsPayload::Kind::kTransactions;
  pool_->Drain(network_->scheduler()->now(), max_block_bytes_, payload);
  return payload;
}

bool BaselineProvider::CheckPayload(const HsPayload&, uint32_t, std::function<void()>) {
  return true;  // Transactions ride inside the proposal itself.
}

void BaselineProvider::OnCommit(const HsPayload& payload, ValidatorId block_author) {
  if (sink_ && payload.num_txs > 0) {
    sink_(block_author, payload.num_txs, payload.payload_bytes, payload.samples);
  }
}

// ---------------------------------------------------------- BatchedProvider

BatchedProvider::BatchedProvider(ValidatorId id, const Committee& committee,
                                 uint64_t batch_size_bytes, TimeDelta max_batch_delay,
                                 uint64_t max_digests_per_block, BatchDirectory* directory)
    : id_(id),
      committee_(committee),
      batch_size_bytes_(batch_size_bytes),
      max_batch_delay_(max_batch_delay),
      max_digests_per_block_(max_digests_per_block),
      directory_(directory),
      pending_(id, /*worker=*/0) {}

void BatchedProvider::Submit(uint64_t num_txs, uint64_t payload_bytes,
                             std::vector<TxSample> samples) {
  pending_.AddLoad(num_txs, payload_bytes);
  for (const TxSample& s : samples) {
    pending_.AddSample(s);
  }
  if (batch_timer_ == Scheduler::kInvalidTimer) {
    batch_timer_ =
        network_->scheduler()->ScheduleAfter(max_batch_delay_, [this] { MaybeSeal(true); });
  }
  MaybeSeal(false);
}

void BatchedProvider::MaybeSeal(bool force) {
  if (force) {
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  if (pending_.num_txs() == 0 || (!force && pending_.payload_bytes() < batch_size_bytes_)) {
    return;
  }
  if (batch_timer_ != Scheduler::kInvalidTimer) {
    network_->scheduler()->Cancel(batch_timer_);
    batch_timer_ = Scheduler::kInvalidTimer;
  }
  std::shared_ptr<const Batch> batch = pending_.Seal(next_seq_++);
  Digest digest = batch->ComputeDigest();
  BatchDirectory::Info info;
  info.author = id_;
  info.num_txs = batch->num_txs();
  info.payload_bytes = batch->payload_bytes();
  info.sealed_at = network_->scheduler()->now();
  info.samples = batch->samples();
  directory_->Register(digest, std::move(info));

  stored_[digest] = batch;
  if (proposable_set_.insert(digest).second) {
    proposable_.push_back(digest);
  }
  // Best-effort dissemination: one shot, no acknowledgments, no retry — the
  // state-of-the-art scheme the paper shows is fragile (§6).
  auto msg = std::make_shared<MsgBatch>(batch, digest);
  for (uint32_t peer : peers_) {
    network_->Send(net_id_, peer, msg);
  }
}

HsPayload BatchedProvider::GetPayload(View) {
  HsPayload payload;
  payload.kind = HsPayload::Kind::kBatchDigests;
  // Drop committed digests from the head, then propose the oldest
  // uncommitted ones *without* removing them: a proposal whose view times
  // out must leave its digests proposable by later leaders.
  while (!proposable_.empty() && committed_.count(proposable_.front()) != 0) {
    proposable_set_.erase(proposable_.front());
    proposable_.pop_front();
  }
  for (size_t i = 0; i < proposable_.size() && payload.batch_digests.size() <
                                                   max_digests_per_block_; ++i) {
    if (committed_.count(proposable_[i]) == 0) {
      payload.batch_digests.push_back(proposable_[i]);
    }
  }
  return payload;
}

bool BatchedProvider::CheckPayload(const HsPayload& payload, uint32_t proposer_net_id,
                                   std::function<void()> ready) {
  std::set<Digest> missing;
  for (const Digest& d : payload.batch_digests) {
    if (stored_.count(d) == 0) {
      missing.insert(d);
    }
  }
  if (missing.empty()) {
    return true;
  }
  // Fetch from the proposer — the only validator known to hold everything.
  for (const Digest& d : missing) {
    network_->Send(net_id_, proposer_net_id, std::make_shared<MsgBatchRequest>(d));
  }
  waiting_.push_back(Waiting{std::move(missing), std::move(ready)});
  return false;
}

void BatchedProvider::OnMessage(uint32_t from, const MessagePtr& msg) {
  Dispatch(
      Handles{}, *msg,
      [&](const MsgBatch& batch) {
        if (!stored_.emplace(batch.digest, batch.batch).second) {
          return;
        }
        if (committed_.count(batch.digest) == 0 && proposable_set_.insert(batch.digest).second) {
          proposable_.push_back(batch.digest);
        }
        // Release any availability waits.
        for (auto it = waiting_.begin(); it != waiting_.end();) {
          it->missing.erase(batch.digest);
          if (it->missing.empty()) {
            auto ready = std::move(it->ready);
            it = waiting_.erase(it);
            ready();
          } else {
            ++it;
          }
        }
      },
      [&](const MsgBatchRequest& request) {
        auto it = stored_.find(request.digest);
        if (it != stored_.end()) {
          network_->Send(net_id_, from, std::make_shared<MsgBatch>(it->second, it->first));
        }
      });
}

void BatchedProvider::OnCommit(const HsPayload& payload, ValidatorId) {
  for (const Digest& d : payload.batch_digests) {
    if (!committed_.insert(d).second) {
      continue;  // Referenced twice across proposals; deliver once.
    }
    const BatchDirectory::Info* info = directory_->Find(d);
    if (info == nullptr) {
      continue;
    }
    if (sink_) {
      sink_(info->author, info->num_txs, info->payload_bytes, info->samples);
    }
  }
}

// ---------------------------------------------------------- NarwhalProvider

NarwhalProvider::NarwhalProvider(Primary* primary, Round gc_depth)
    : primary_(primary), commit_log_(primary, gc_depth) {
  primary_->add_on_header_stored([this](const Digest&) { DrainPending(); });
}

HsPayload NarwhalProvider::GetPayload(View) {
  HsPayload payload;
  payload.kind = HsPayload::Kind::kCertificates;
  // Propose the newest certificate we know: committing it orders its whole
  // uncommitted causal history (paper §3.2), so one fixed-size certificate
  // per proposal suffices regardless of load.
  const Dag& dag = primary_->dag();
  for (Round r = dag.HighestRound();; --r) {
    for (const auto& [author, cert] : dag.CertsAt(r)) {
      if (!commit_log_.IsCommitted(cert->header_digest)) {
        payload.certs.push_back(*cert);
        return payload;
      }
    }
    if (r == 0) {
      break;
    }
  }
  return payload;
}

bool NarwhalProvider::CheckPayload(const HsPayload& payload, uint32_t, std::function<void()>) {
  // A certificate carries its own proof of availability: 2f+1 signatures.
  // Nothing needs downloading before voting — the decisive difference from
  // Batched-HS.
  for (const Certificate& cert : payload.certs) {
    if (!primary_->IngestCertificate(cert)) {
      return true;  // Invalid cert: treated as an empty payload.
    }
  }
  return true;
}

void NarwhalProvider::OnCommit(const HsPayload& payload, ValidatorId) {
  for (const Certificate& cert : payload.certs) {
    pending_anchors_.push_back(cert);
    primary_->IngestCertificate(cert);
  }
  DrainPending();
}

void NarwhalProvider::DrainPending() {
  while (!pending_anchors_.empty()) {
    Certificate anchor = std::move(pending_anchors_.front());
    pending_anchors_.pop_front();
    // An anchor below the GC horizon was delivered before (HotStuff may
    // commit a certificate twice) and its record is pruned, or its history
    // is gone for good. The horizon follows the delivered prefix, so every
    // correct validator drops the same anchors.
    if (commit_log_.IsCommitted(anchor.header_digest) ||
        anchor.round < primary_->dag().gc_round()) {
      continue;
    }
    std::optional<Dag::History> history = commit_log_.CompleteHistory(anchor.header_digest);
    if (!history.has_value()) {
      pending_anchors_.push_front(std::move(anchor));
      return;  // Strictly in-order delivery: wait for sync.
    }
    // A chain of one has no earlier anchor whose history could defer it.
    commit_log_.Deliver({&anchor}, std::move(*history), /*wave=*/0, /*decision_round=*/0);
    commit_log_.AdvanceGc(anchor.round);
  }
}

}  // namespace nt
