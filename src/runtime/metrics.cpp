#include "src/runtime/metrics.h"

#include <algorithm>

namespace nt {

void Metrics::RegisterCertCache(const VerifiedCertCache* cache) { cert_caches_.push_back(cache); }

void Metrics::UnregisterCertCache(const VerifiedCertCache* cache) {
  auto it = std::find(cert_caches_.begin(), cert_caches_.end(), cache);
  if (it != cert_caches_.end()) {
    retired_cache_hits_ += cache->stats().hits;
    retired_cache_misses_ += cache->stats().misses;
    cert_caches_.erase(it);
  }
}

uint64_t Metrics::cert_cache_hits() const {
  uint64_t hits = retired_cache_hits_;
  for (const VerifiedCertCache* cache : cert_caches_) {
    hits += cache->stats().hits;
  }
  return hits;
}

uint64_t Metrics::cert_cache_misses() const {
  uint64_t misses = retired_cache_misses_;
  for (const VerifiedCertCache* cache : cert_caches_) {
    misses += cache->stats().misses;
  }
  return misses;
}

void Metrics::OnCommit(ValidatorId at, ValidatorId latency_owner, uint64_t num_txs,
                       uint64_t payload_bytes, const std::vector<TxSample>& samples) {
  TimePoint now = scheduler_->now();
  // Commit feedback for re-submitting clients, regardless of the window.
  for (const TxSample& s : samples) {
    committed_samples_.insert(s.tx_id);
  }
  if (at == latency_owner) {
    // Stamp traced commits here — at the same validator latency_ samples
    // from — so the tracer's per-transaction e2e equals the latency_ sample
    // for the same tx. Unconditional on the window: ComputeBreakdown applies
    // the identical window filter itself.
    NT_TRACE(tracer_, OnSamplesCommitted(samples, now));
  }
  if (at == observer_) {
    max_commit_gap_ = std::max(max_commit_gap_, now - last_commit_);
    last_commit_ = now;
  }
  if (now < window_start_ || now >= window_end_) {
    return;
  }
  if (at == observer_) {
    committed_txs_ += num_txs;
    committed_bytes_ += payload_bytes;
  }
  if (at == latency_owner) {
    for (const TxSample& s : samples) {
      if (s.submit_time >= window_start_) {
        latency_.Add(ToSeconds(now - s.submit_time));
      }
    }
  }
}

}  // namespace nt
