// Rate-controlled load generation, one generator per (validator, worker) —
// the paper's "one benchmark client per worker submitting transactions at a
// fixed rate" (§7). Every `tx_sample_rate`-th transaction carries a latency
// sample tracked end-to-end.
#ifndef SRC_RUNTIME_CLIENT_H_
#define SRC_RUNTIME_CLIENT_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/shard/workload.h"

namespace nt {

class LoadGenerator {
 public:
  struct Options {
    double rate_tps = 1000;      // Transactions per second from this client.
    uint64_t tx_size = 512;      // Bytes per transaction (paper baseline).
    uint64_t sample_rate = 100;  // One latency sample per this many txs.
    TimeDelta tick = Millis(10); // Submission granularity.
    TimePoint stop_at = kNever;  // Stop submitting at this time.

    // Transfer mode (sharded execution lanes, §8.4): when set, each
    // submission is an encoded ExecTx drawn from this workload instead of
    // `tx_size` synthetic bytes. The workload must outlive the generator.
    // Narwhal-based systems only (explicit payloads need workers). Draws come
    // from a per-generator stream derived from the cluster seed, so adding a
    // client never perturbs another's transaction sequence.
    const TransferWorkload* transfer = nullptr;

    // Client re-submission (paper §8.4): if a tracked transaction is not
    // committed within this timeout, submit it again — to the next validator
    // when `failover` is set (covers a crashed or censoring entry point).
    // 0 disables.
    TimeDelta resubmit_timeout = 0;
    bool failover = true;
    uint32_t max_resubmits = 8;
  };

  LoadGenerator(Cluster* cluster, ValidatorId validator, WorkerId worker, Options options);

  // Schedules the first tick.
  void Start();

  uint64_t submitted_txs() const { return submitted_; }
  uint64_t resubmitted_txs() const { return resubmitted_; }
  // Tracked transactions this client gave up on (max_resubmits exhausted).
  uint64_t abandoned_txs() const { return abandoned_; }

 private:
  struct PendingTx {
    uint64_t tx_id = 0;
    // The first tick at or after which CheckResubmits acts on this entry:
    // resubmits it, abandons it, or drops it once committed.
    TimePoint due = 0;
    TimePoint submit_time = 0;  // Original submission (latency anchor).
    uint32_t attempts = 1;
    ValidatorId target = 0;
    // Transfer mode: the exact payload to resubmit (a retry must be the same
    // transaction — the worker's dedup window absorbs same-entry duplicates).
    Bytes payload;
  };

  void Tick();
  void CheckResubmits(TimePoint now);
  // Heap order of pending_: the entry due first, then the lowest tx id, on
  // top.
  static bool DueLater(const PendingTx& a, const PendingTx& b);
  void Enqueue(PendingTx tx);

  Cluster* cluster_;
  ValidatorId validator_;
  WorkerId worker_;
  Options options_;
  Rng rng_;  // Transfer-mode draws (derived per generator; unused otherwise).
  double carry_ = 0;  // Fractional transactions carried across ticks.
  uint64_t submitted_ = 0;
  uint64_t resubmitted_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t until_sample_ = 0;
  // Tracked (sampled) transactions not yet known to be committed: a min-heap
  // on (due, tx_id), so a tick touches only the entries due on it.
  std::vector<PendingTx> pending_;
};

}  // namespace nt

#endif  // SRC_RUNTIME_CLIENT_H_
