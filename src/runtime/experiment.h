// One-shot experiment runner: deploys a cluster, drives load, injects
// faults, and reports the paper's metrics (throughput in tx/s, end-to-end
// latency statistics). ntbench and every row of ntpaper's paper table are
// runs of RunExperiment.
#ifndef SRC_RUNTIME_EXPERIMENT_H_
#define SRC_RUNTIME_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {

struct ExperimentParams {
  // The deployment: system, committee size, workers and their placement,
  // seed, execution lanes and tracing all come from here as given.
  ClusterConfig cluster;

  double rate_tps = 10000;  // Aggregate input rate across all clients.
  uint64_t tx_size = 512;
  uint32_t faults = 0;            // Crash this many validators at t=0.
  TimeDelta duration = Seconds(20);
  TimeDelta warmup = Seconds(5);

  // Asynchrony windows: message latency is multiplied by `factor` during
  // [start, end). Several windows give alternating unstable-network
  // schedules.
  struct AsyncWindow {
    TimePoint start;
    TimePoint end;
    double factor;
  };
  std::vector<AsyncWindow> async_windows;

  // Client re-submission (0 = disabled; see LoadGenerator::Options, whose
  // default caps the re-submissions).
  TimeDelta resubmit_timeout = 0;

  // Sharded execution (§8.4): with cluster.exec_lanes > 0 every client
  // switches to the accounts/transfer workload these knobs shape (see
  // TransferWorkloadConfig), and the result reports applied/rejected/
  // cross-shard execution counters. Narwhal-based systems only.
  double cross_ratio = 0.0;
  double zipf_theta = 0.0;
  double hot_ratio = 0.0;

  // Lifecycle tracing: cluster.trace enables the Tracer (per-stage latency
  // breakdown in the result); a non-empty `trace_path` additionally writes
  // a Chrome trace-event JSON (chrome://tracing / Perfetto) and implies
  // cluster.trace.
  std::string trace_path;
};

struct ExperimentResult {
  double tps = 0;
  // Latency over the sampled transactions that entered after warm-up and
  // committed before the end; all four read 0 when sampled_txs is 0, which
  // is no measurement.
  double avg_latency_s = 0;
  double latency_stddev_s = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  uint64_t committed_txs = 0;
  uint64_t sampled_txs = 0;

  // Longest time without a commit at the observer, from t=0 to the end of
  // the run (Table 1's commit regularity under asynchrony).
  double max_commit_gap_s = 0;
  // The observer's DAG at the end of the run (Narwhal-based systems only):
  // certificates held and rounds from its GC horizon to its highest round.
  uint64_t dag_certs = 0;
  uint64_t dag_round_span = 0;
  // Traffic per message type over the whole run (Network::type_stats()).
  std::map<std::string, Network::TypeStats> message_types;

  // Verified-certificate cache activity during the run, aggregated over
  // every node's per-validator cache (see Metrics::cert_cache_hits).
  uint64_t cert_cache_hits = 0;
  uint64_t cert_cache_misses = 0;

  // Client-side resubmission accounting (satellite of Fig. 8 loss runs).
  uint64_t resubmitted_txs = 0;
  uint64_t abandoned_txs = 0;

  // Execution counters at the observer validator (cluster.exec_lanes > 0
  // only):
  // transactions applied vs rejected by the state machine, and how many of
  // the applied were cross-shard transfers.
  uint64_t exec_applied = 0;
  uint64_t exec_rejected = 0;
  uint64_t exec_cross = 0;

  // Per-stage latency breakdown; populated only when the run was traced.
  bool traced = false;
  LatencyBreakdown breakdown;
  // True if params.trace_path was written successfully.
  bool trace_written = false;
};

ExperimentResult RunExperiment(const ExperimentParams& params);

// Prints the per-stage latency breakdown table (no-op unless result.traced).
void PrintLatencyBreakdown(const ExperimentResult& result);

}  // namespace nt

#endif  // SRC_RUNTIME_EXPERIMENT_H_
