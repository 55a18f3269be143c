#include "src/runtime/experiment.h"

#include <cstdio>
#include <memory>

#include "src/shard/workload.h"

namespace nt {

ExperimentResult RunExperiment(const ExperimentParams& params) {
  ClusterConfig config = params.cluster;
  config.trace = config.trace || !params.trace_path.empty();
  const uint32_t nodes = config.num_validators;
  const uint32_t workers = config.workers_per_validator;

  // The accounts/transfer workload behind every client in sharded-execution
  // mode; must outlive the generators.
  std::unique_ptr<TransferWorkload> workload;
  if (config.exec_lanes > 0) {
    TransferWorkloadConfig wl;
    wl.num_shards = config.exec_lanes;
    wl.cross_ratio = params.cross_ratio;
    wl.zipf_theta = params.zipf_theta;
    wl.hot_ratio = params.hot_ratio;
    workload = std::make_unique<TransferWorkload>(wl);
  }

  Cluster cluster(config);

  // Crash the highest-numbered validators (validator 0 stays alive as the
  // metrics observer, matching the paper's measurement at a correct node).
  for (uint32_t i = 0; i < params.faults && i + 1 < nodes; ++i) {
    cluster.CrashValidator(nodes - 1 - i, 0);
  }
  for (const ExperimentParams::AsyncWindow& w : params.async_windows) {
    cluster.faults().AddAsynchronyWindow(w.start, w.end, w.factor);
  }

  cluster.metrics().set_observer(0);
  cluster.metrics().SetWindow(params.warmup, params.duration);

  // One client per (validator, worker), splitting the aggregate rate.
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  double per_client = params.rate_tps / (nodes * workers);
  for (uint32_t v = 0; v < nodes; ++v) {
    for (uint32_t w = 0; w < workers; ++w) {
      LoadGenerator::Options options;
      options.rate_tps = per_client;
      options.tx_size = params.tx_size;
      options.sample_rate = config.narwhal.tx_sample_rate;
      options.stop_at = params.duration;
      options.resubmit_timeout = params.resubmit_timeout;
      options.transfer = workload.get();
      clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, w, options));
    }
  }

  if (workload != nullptr) {
    // Fund the account population before the transfer stream ramps up: one
    // sealed block of mints through the observer's worker right after start
    // (transfers that race ahead of the mint commit are counted as rejected,
    // and the warm-up window absorbs them).
    std::vector<Bytes> mints = workload->InitialMints();
    Cluster* c = &cluster;
    cluster.scheduler().ScheduleAt(Millis(1), [c, mints] { c->worker(0, 0)->SubmitBlock(mints); });
  }

  cluster.Start();
  for (auto& client : clients) {
    client->Start();
  }
  cluster.StartGaugeSampling(params.duration);
  cluster.StartExecutorPump(params.duration);
  cluster.scheduler().RunUntil(params.duration);

  ExperimentResult result;
  result.tps = cluster.metrics().ThroughputTps();
  const SampleStats& lat = cluster.metrics().latency_seconds();
  result.avg_latency_s = lat.Mean();
  result.latency_stddev_s = lat.StdDev();
  result.p50_latency_s = lat.Percentile(50);
  result.p99_latency_s = lat.Percentile(99);
  result.committed_txs = cluster.metrics().committed_txs();
  result.sampled_txs = lat.count();
  result.cert_cache_hits = cluster.metrics().cert_cache_hits();
  result.cert_cache_misses = cluster.metrics().cert_cache_misses();
  result.abandoned_txs = cluster.metrics().abandoned_txs();
  result.exec_applied = cluster.metrics().exec_applied();
  result.exec_rejected = cluster.metrics().exec_rejected();
  result.exec_cross = cluster.metrics().exec_cross();
  for (const auto& client : clients) {
    result.resubmitted_txs += client->resubmitted_txs();
  }
  result.max_commit_gap_s = ToSeconds(cluster.metrics().MaxCommitGap());
  if (const Primary* primary = cluster.primary(0)) {
    const Dag& dag = primary->dag();
    result.dag_certs = dag.TotalCertificates();
    result.dag_round_span = dag.HighestRound() - dag.gc_round();
  }
  result.message_types = cluster.network().type_stats();
  if (Tracer* tracer = cluster.tracer()) {
    result.traced = true;
    result.breakdown = tracer->ComputeBreakdown(params.warmup, params.duration);
    if (!params.trace_path.empty()) {
      result.trace_written = tracer->WriteChromeTrace(params.trace_path);
    }
  }
  return result;
}

void PrintLatencyBreakdown(const ExperimentResult& r) {
  if (!r.traced) {
    return;
  }
  std::printf("latency breakdown (%llu txs, %llu incomplete):\n",
              static_cast<unsigned long long>(r.breakdown.completed_txs),
              static_cast<unsigned long long>(r.breakdown.incomplete_txs));
  std::printf("  %-8s %9s %9s %9s\n", "stage", "mean_s", "p50_s", "p99_s");
  auto row = [](const char* name, const SampleStats& s) {
    std::printf("  %-8s %9.3f %9.3f %9.3f\n", name, s.Mean(), s.Percentile(50), s.Percentile(99));
  };
  row("batch", r.breakdown.batch_s);
  row("cert", r.breakdown.cert_s);
  row("commit", r.breakdown.commit_s);
  row("exec", r.breakdown.exec_s);
  row("e2e", r.breakdown.e2e_s);
  std::fflush(stdout);
}

}  // namespace nt
