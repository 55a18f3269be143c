// Commit-side measurement, mirroring the paper's methodology (§7):
// throughput is committed transactions per second observed at one correct
// validator; latency is measured on sampled transactions from client
// submission until the validator the client submitted to commits them.
#ifndef SRC_RUNTIME_METRICS_H_
#define SRC_RUNTIME_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/trace.h"
#include "src/crypto/digest_table.h"
#include "src/sim/scheduler.h"
#include "src/types/cert_cache.h"
#include "src/types/types.h"

namespace nt {

class Metrics {
 public:
  explicit Metrics(Scheduler* scheduler) : scheduler_(scheduler) {}

  // Throughput counts commits observed at this validator only (each block is
  // committed by every honest validator; count it once).
  void set_observer(ValidatorId v) { observer_ = v; }

  // Attaches the cluster's tracer: per-transaction commit stamps are emitted
  // here (at the latency-owner validator, exactly where latency_ samples
  // come from) so the traced breakdown sums to the measured e2e latency.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Measurement window [start, end): commits outside it are ignored
  // (warm-up / cool-down).
  void SetWindow(TimePoint start, TimePoint end) {
    window_start_ = start;
    window_end_ = end;
  }

  // Called by every validator's commit sink.
  //   at:            validator that just committed locally;
  //   latency_owner: validator whose local commit defines the samples'
  //                  latency (where the client submitted).
  void OnCommit(ValidatorId at, ValidatorId latency_owner, uint64_t num_txs,
                uint64_t payload_bytes, const std::vector<TxSample>& samples);

  uint64_t committed_txs() const { return committed_txs_; }
  uint64_t committed_bytes() const { return committed_bytes_; }
  const SampleStats& latency_seconds() const { return latency_; }

  // Execution-side counters (sharded execution lanes, §8.4). The executor
  // reports its cumulative totals after every executed header; only the
  // observer validator's stream is recorded (every honest validator executes
  // the same transactions — count them once, like commits). Applied and
  // rejected are split so benchmark output can distinguish throughput from
  // churn (insufficient-funds / malformed payloads).
  void OnExecuted(ValidatorId at, uint64_t applied_total, uint64_t rejected_total,
                  uint64_t cross_total) {
    if (at != observer_) {
      return;
    }
    exec_applied_ = applied_total;
    exec_rejected_ = rejected_total;
    exec_cross_ = cross_total;
  }
  uint64_t exec_applied() const { return exec_applied_; }
  uint64_t exec_rejected() const { return exec_rejected_; }
  uint64_t exec_cross() const { return exec_cross_; }

  // Transactions whose clients gave up after max_resubmits (satellite of the
  // Fig. 8 loss accounting: submitted-but-never-committed must be visible).
  void AddAbandonedTxs(uint64_t n) { abandoned_txs_ += n; }
  uint64_t abandoned_txs() const { return abandoned_txs_; }

  // Commit feedback for clients (paper §8.4: "Narwhal relies on clients to
  // re-submit a transaction if it is not sequenced in time"): true once any
  // validator committed the sampled transaction.
  bool IsSampleCommitted(uint64_t tx_id) const { return committed_samples_.contains(tx_id); }

  double ThroughputTps() const {
    double window = ToSeconds(window_end_ - window_start_);
    return window > 0 ? static_cast<double>(committed_txs_) / window : 0.0;
  }

  // Attributes a per-validator cache's activity to this run. Cluster calls
  // this for every node's cache when the cache is new (at build time and at
  // each rebuild), so all of its counters belong to the run. The pointer
  // must outlive this Metrics instance (Cluster declares metrics_ before the
  // node containers, so nodes are destroyed first).
  void RegisterCertCache(const VerifiedCertCache* cache);

  // Detaches a cache about to be destroyed (a validator being rebuilt after
  // a simulated restart): its activity so far is folded into a retired total
  // so the run's numbers stay monotone while the pointer goes away.
  void UnregisterCertCache(const VerifiedCertCache* cache);

  // Verified-certificate cache activity of this run: the retired totals plus
  // the sum over the registered per-validator caches.
  uint64_t cert_cache_hits() const;
  uint64_t cert_cache_misses() const;
  double CertCacheHitRate() const {
    uint64_t total = cert_cache_hits() + cert_cache_misses();
    return total == 0 ? 0.0 : static_cast<double>(cert_cache_hits()) / static_cast<double>(total);
  }

 private:
  Scheduler* scheduler_;
  std::vector<const VerifiedCertCache*> cert_caches_;
  // Activity of caches unregistered mid-run (validators rebuilt on restart).
  uint64_t retired_cache_hits_ = 0;
  uint64_t retired_cache_misses_ = 0;
  ValidatorId observer_ = 0;
  TimePoint window_start_ = 0;
  TimePoint window_end_ = kNever;

  uint64_t committed_txs_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t abandoned_txs_ = 0;
  uint64_t exec_applied_ = 0;
  uint64_t exec_rejected_ = 0;
  uint64_t exec_cross_ = 0;
  SampleStats latency_;
  // Tx ids come from a counter; FlatTable's multiplicative mix spreads them.
  struct TxIdHash {
    uint64_t operator()(uint64_t tx_id) const { return tx_id; }
  };
  FlatTable<uint64_t, Present, TxIdHash> committed_samples_;
  Tracer* tracer_ = nullptr;
};

}  // namespace nt

#endif  // SRC_RUNTIME_METRICS_H_
