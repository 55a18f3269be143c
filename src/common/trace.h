// Structured transaction-lifecycle tracing (observability layer).
//
// The benchmark harness historically reported only end-to-end aggregates, so
// latency could not be attributed to dissemination vs. consensus vs.
// execution. The Tracer records, per *sampled* transaction, a timestamp for
// every lifecycle stage —
//
//   client submit -> worker batch seal -> batch quorum-ack -> header
//   proposal -> certificate formed -> consensus commit -> executor apply
//
// — plus named counters (retransmissions, resubmits), per-digest retry-round
// tracking (for bounded-backoff assertions), and per-node gauges sampled on a
// timer (NIC egress backlog/utilization, DAG round/size, scheduler
// pending-events, cert-cache hit rate). From these it derives a telescoping
// per-stage latency breakdown whose stages sum exactly to the end-to-end
// latency per transaction, and exports a Chrome trace-event JSON file
// (chrome://tracing / Perfetto) for visual inspection of a single run.
//
// Cost model: one Tracer per Cluster, enabled only on demand. Every emit
// point goes through the NT_TRACE macro below, which tests a raw pointer that
// is nullptr when tracing is off (one predictable branch, arguments not
// evaluated), so Tier-1 benchmark numbers are unaffected.
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/crypto/hash.h"
#include "src/types/committee.h"

namespace nt {

struct TxSample;  // src/types/types.h — only referenced, never copied here.
struct BatchRef;

class Tracer;

// Emit-point guard. Arguments (including any now() call) are evaluated only
// when a tracer is attached.
#define NT_TRACE(tracer, call)  \
  do {                          \
    if ((tracer) != nullptr) {  \
      (tracer)->call;           \
    }                           \
  } while (0)

// Telescoping per-stage latency split over sampled transactions: every stage
// measures from the previous recorded stage, so per transaction
//   batch + cert + commit + exec == e2e
// exactly (missing intermediate stages contribute zero and pass the anchor
// through). Aggregated with the same measurement window as Metrics.
struct LatencyBreakdown {
  SampleStats batch_s;   // submit -> batch quorum-ack (seal + dissemination).
  SampleStats cert_s;    // quorum-ack -> certificate of availability formed.
  SampleStats commit_s;  // certificate -> consensus commit (at the validator
                         // the client submitted to, as Metrics measures).
  SampleStats exec_s;    // commit -> executor apply (zero without an executor).
  SampleStats e2e_s;     // submit -> last recorded stage.
  uint64_t completed_txs = 0;   // Samples committed inside the window.
  uint64_t incomplete_txs = 0;  // Samples submitted in-window, never committed.
};

class Tracer {
 public:
  // Sentinel for "stage not reached". Simulation time starts at 0, so 0 is a
  // valid timestamp and cannot be the sentinel.
  static constexpr TimePoint kUnset = -1;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- transaction lifecycle (sampled transactions only) ---------------------

  void OnTxSubmit(uint64_t tx_id, ValidatorId target, TimePoint now);
  void OnTxResubmit(uint64_t tx_id, ValidatorId target, uint32_t attempt, TimePoint now);
  void OnTxAbandoned(uint64_t tx_id, TimePoint now);
  void OnBatchSealed(ValidatorId v, WorkerId w, const Digest& batch,
                     const std::vector<TxSample>& samples, TimePoint now);
  void OnBatchQuorum(ValidatorId v, const Digest& batch, TimePoint now);
  void OnHeaderProposed(ValidatorId v, const Digest& header, Round round,
                        const std::vector<BatchRef>& batches, TimePoint now);
  void OnCertFormed(ValidatorId v, const Digest& header, Round round, TimePoint now);
  // Consensus commit of a header/block at validator `v` (every correct
  // validator commits every block; per-transaction commit stamps come from
  // OnSamplesCommitted instead, which Metrics filters to the validator the
  // client submitted to).
  void OnHeaderCommitted(ValidatorId v, const Digest& header, TimePoint now);
  void OnSamplesCommitted(const std::vector<TxSample>& samples, TimePoint now);
  void OnExecuted(ValidatorId v, const Digest& header, TimePoint now);

  // --- counters ---------------------------------------------------------------

  void IncrCounter(const std::string& name, uint64_t delta = 1);
  // Records one retransmission round of `kind` for `digest` carrying
  // `messages` messages. Rounds per digest are what the bounded-backoff
  // tests assert on.
  void IncrRetryRound(const std::string& kind, const Digest& digest, uint64_t messages);

  uint64_t counter(const std::string& name) const;
  uint32_t retry_rounds(const std::string& kind, const Digest& digest) const;
  // Highest number of retransmission rounds any single digest of `kind` saw.
  uint32_t max_retry_rounds(const std::string& kind) const;
  uint64_t total_retry_rounds(const std::string& kind) const;

  // --- gauges -----------------------------------------------------------------

  // Sampled by the cluster's gauge timer; `pid` groups the counter track in
  // the Chrome trace (0 = cluster-wide, v+1 = validator v).
  using GaugeFn = std::function<double(TimePoint now)>;
  void RegisterGauge(const std::string& name, uint32_t pid, GaugeFn fn);
  void SampleGauges(TimePoint now);
  // Summary stats over all samples of a gauge; nullptr if never sampled.
  const SampleStats* gauge_stats(const std::string& name) const;

  // --- reporting --------------------------------------------------------------

  LatencyBreakdown ComputeBreakdown(TimePoint window_start, TimePoint window_end) const;

  // Writes the Chrome trace-event JSON ({"traceEvents":[...]}) to `path`.
  // Returns false if the file could not be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t traced_txs() const { return txs_.size(); }

 private:
  struct TxRecord {
    ValidatorId target = UINT32_MAX;
    TimePoint submit = kUnset;
    TimePoint sealed = kUnset;
    TimePoint quorum = kUnset;
    TimePoint proposed = kUnset;
    TimePoint cert = kUnset;
    TimePoint commit = kUnset;
    TimePoint exec = kUnset;
    uint32_t resubmits = 0;
    bool abandoned = false;
  };
  struct BatchRecord {
    ValidatorId validator = 0;
    WorkerId worker = 0;
    TimePoint sealed = kUnset;
    TimePoint quorum = kUnset;
    uint32_t num_samples = 0;
  };
  struct HeaderRecord {
    ValidatorId author = 0;
    Round round = 0;
    TimePoint proposed = kUnset;
    TimePoint cert = kUnset;
    TimePoint committed = kUnset;         // Earliest commit at any validator.
    TimePoint author_committed = kUnset;  // Commit at the proposing validator.
    TimePoint executed = kUnset;
    std::vector<uint64_t> tx_ids;
  };
  struct Gauge {
    std::string name;
    uint32_t pid = 0;
    GaugeFn fn;
    std::vector<std::pair<TimePoint, double>> samples;
    SampleStats stats;
  };

  static void Stamp(TimePoint* slot, TimePoint now) {
    if (*slot == kUnset) {
      *slot = now;
    }
  }

  std::map<uint64_t, TxRecord> txs_;
  std::map<Digest, std::vector<uint64_t>> batch_txs_;
  std::map<Digest, BatchRecord> batches_;
  std::map<Digest, HeaderRecord> headers_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::map<Digest, uint32_t>> retry_rounds_;
  std::vector<Gauge> gauges_;
};

}  // namespace nt

#endif  // SRC_COMMON_TRACE_H_
