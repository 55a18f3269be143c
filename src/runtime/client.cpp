#include "src/runtime/client.h"

#include <algorithm>
#include <tuple>

namespace nt {

LoadGenerator::LoadGenerator(Cluster* cluster, ValidatorId validator, WorkerId worker,
                             Options options)
    : cluster_(cluster),
      validator_(validator),
      worker_(worker),
      options_(options),
      rng_(Rng::Derive(cluster->config().seed,
                       "loadgen-" + std::to_string(validator) + "-" + std::to_string(worker))) {}

void LoadGenerator::Start() {
  cluster_->scheduler().ScheduleAfter(options_.tick, [this] { Tick(); });
}

void LoadGenerator::Tick() {
  TimePoint now = cluster_->scheduler().now();
  if (now >= options_.stop_at) {
    return;
  }
  carry_ += options_.rate_tps * ToSeconds(options_.tick);
  uint64_t count = static_cast<uint64_t>(carry_);
  carry_ -= static_cast<double>(count);

  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = cluster_->NextTxId();
    Bytes payload;
    if (options_.transfer != nullptr) {
      // The cluster-unique tx id doubles as the transfer nonce, so two
      // clients drawing the same (from, to, amount) still submit distinct
      // wire payloads (the worker dedup window must not merge them).
      payload = options_.transfer->NextTransfer(rng_, id);
    }
    std::optional<TxSample> sample;
    if (until_sample_ == 0) {
      sample = TxSample{id, now};
      until_sample_ = options_.sample_rate;
      if (options_.resubmit_timeout > 0) {
        // With max_resubmits = 0 the sample is abandoned by this tick's
        // CheckResubmits; otherwise it is first looked at after the timeout.
        TimePoint due = options_.max_resubmits == 0 ? now : now + options_.resubmit_timeout;
        Enqueue(PendingTx{id, due, now, 1, validator_, payload});
      }
      NT_TRACE(cluster_->tracer(), OnTxSubmit(id, validator_, now));
    }
    --until_sample_;
    if (options_.transfer != nullptr) {
      cluster_->SubmitTxPayload(validator_, worker_, std::move(payload), sample);
    } else {
      cluster_->SubmitTx(validator_, worker_, options_.tx_size, sample);
    }
    ++submitted_;
  }
  if (options_.resubmit_timeout > 0) {
    CheckResubmits(now);
  }
  cluster_->scheduler().ScheduleAfter(options_.tick, [this] { Tick(); });
}

bool LoadGenerator::DueLater(const PendingTx& a, const PendingTx& b) {
  return std::tie(a.due, a.tx_id) > std::tie(b.due, b.tx_id);
}

void LoadGenerator::Enqueue(PendingTx tx) {
  pending_.push_back(std::move(tx));
  std::push_heap(pending_.begin(), pending_.end(), DueLater);
}

void LoadGenerator::CheckResubmits(TimePoint now) {
  // Take the entries due on this tick and act on them in tx id order, the
  // order they were first submitted in: SubmitTx order decides batch
  // contents, and batch contents decide the rest of the run.
  std::vector<PendingTx> due;
  while (!pending_.empty() && pending_.front().due <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), DueLater);
    due.push_back(std::move(pending_.back()));
    pending_.pop_back();
  }
  std::sort(due.begin(), due.end(),
            [](const PendingTx& a, const PendingTx& b) { return a.tx_id < b.tx_id; });

  const Metrics& metrics = cluster_->metrics();
  const uint32_t num_validators = cluster_->config().num_validators;
  for (PendingTx& tx : due) {
    if (metrics.IsSampleCommitted(tx.tx_id)) {
      continue;
    }
    if (tx.attempts > options_.max_resubmits) {
      // The client gives up on this transaction. It was counted as submitted
      // but will never commit; report it so loss accounting (Fig. 8) sees it
      // instead of it silently vanishing.
      ++abandoned_;
      cluster_->metrics().AddAbandonedTxs(1);
      NT_TRACE(cluster_->tracer(), OnTxAbandoned(tx.tx_id, now));
      continue;
    }
    if (options_.failover) {
      // Rotate to the next validator the network still reports alive —
      // failing over onto a crashed entry point would burn a whole
      // resubmit_timeout for nothing. If every other validator is down,
      // stay where we are.
      ValidatorId next = tx.target;
      for (uint32_t step = 1; step <= num_validators; ++step) {
        ValidatorId candidate = (tx.target + step) % num_validators;
        if (!cluster_->IsValidatorCrashed(candidate)) {
          next = candidate;
          break;
        }
      }
      tx.target = next;
    }
    // Keep the original submit time: latency is measured from the client's
    // first attempt, as the paper's clients would experience it.
    if (options_.transfer != nullptr) {
      cluster_->SubmitTxPayload(tx.target, worker_, tx.payload,
                                TxSample{tx.tx_id, tx.submit_time});
    } else {
      cluster_->SubmitTx(tx.target, worker_, options_.tx_size,
                         TxSample{tx.tx_id, tx.submit_time});
    }
    ++tx.attempts;
    ++resubmitted_;
    NT_TRACE(cluster_->tracer(), OnTxResubmit(tx.tx_id, tx.target, tx.attempts, now));
    // Out of re-submissions: abandoned on the next tick unless committed by
    // then.
    tx.due = now + (tx.attempts > options_.max_resubmits ? options_.tick
                                                          : options_.resubmit_timeout);
    Enqueue(std::move(tx));
  }
}

}  // namespace nt
