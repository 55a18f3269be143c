// ntbench — command-line experiment runner, the counterpart of the paper
// artifact's `fab local/remote` scripts: deploy one configuration of one of
// the six systems on the simulated WAN and report throughput/latency.
//
//   ntbench --system tusk --nodes 10 --rate 100000 --duration 20
//   ntbench --system narwhal-hs --nodes 4 --workers 7 --dedicated --rate 700000
//   ntbench --system batched-hs --nodes 10 --faults 3 --rate 70000 --csv
//
// Flags:
//   --system {baseline-hs,batched-hs,narwhal-hs,tusk,dag-rider,bullshark}   (default tusk)
//   --nodes N         validators (default 4)
//   --workers W       workers per validator (default 1)
//   --dedicated       one machine per worker (default: collocated)
//   --rate TPS        aggregate input rate (default 10000)
//   --tx-size BYTES   transaction size (default 512)
//   --faults F        validators crashed at t=0 (default 0)
//   --duration SECS   simulated run length (default 20)
//   --warmup SECS     measurement warm-up (default 5)
//   --seed S          root seed (default 1)
//   --runs R          averaged runs with distinct seeds (default 1)
//   --jobs N          fork up to N workers for the --runs sweep (default 1)
//   --batch-kb KB     worker batch size (default 500)
//   --shards S        sharded execution lanes per validator (default 0 = off;
//                     Narwhal-based systems only — switches clients to the
//                     accounts/transfer workload and reports exec counters)
//   --cross-ratio R   fraction of transfers that cross lanes (default 0)
//   --zipf THETA      zipf skew for account selection (default 0 = uniform)
//   --hot-ratio R     chance a transfer debits the lane's hottest account
//   --real-crypto     RFC 8032 Ed25519 signatures (default: FastSigner)
//   --async-from S --async-to S --async-factor X   asynchrony window
//   --trace PATH      enable lifecycle tracing; write Chrome trace JSON to
//                     PATH (open in chrome://tracing or ui.perfetto.dev) and
//                     print the per-stage latency breakdown
//   --csv             machine-readable one-line output
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "tools/sweep.h"

using namespace nt;

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "ntbench: %s\n(see the header of tools/ntbench.cpp for flags)\n", msg);
  std::exit(2);
}

// A latency cell of `r`, or "n/a" when some run had no latency sample.
std::string LatencyCell(const SweepResult& r, double seconds, const char* format) {
  if (!r.latency_measured) {
    return "n/a";
  }
  char cell[32];
  std::snprintf(cell, sizeof(cell), format, seconds);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentParams params;
  params.duration = Seconds(20);
  params.warmup = Seconds(5);
  int runs = 1;
  int jobs = 1;
  bool csv = false;
  // --async-from/--async-to/--async-factor describe one asynchrony window.
  TimePoint async_from = kNever;
  TimePoint async_to = kNever;
  double async_factor = 20.0;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--system") {
      const std::optional<SystemKind> system = ParseSystem(next());
      if (!system.has_value()) {
        Usage("unknown --system");
      }
      params.cluster.system = *system;
    } else if (flag == "--nodes") {
      params.cluster.num_validators = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--workers") {
      params.cluster.workers_per_validator = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--dedicated") {
      params.cluster.collocate = false;
    } else if (flag == "--rate") {
      params.rate_tps = std::stod(next());
    } else if (flag == "--tx-size") {
      params.tx_size = std::stoull(next());
    } else if (flag == "--faults") {
      params.faults = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--duration") {
      params.duration = Seconds(std::stoll(next()));
    } else if (flag == "--warmup") {
      params.warmup = Seconds(std::stoll(next()));
    } else if (flag == "--seed") {
      params.cluster.seed = std::stoull(next());
    } else if (flag == "--runs") {
      runs = std::stoi(next());
    } else if (flag == "--jobs") {
      jobs = std::stoi(next());
      if (jobs < 1) {
        Usage("--jobs needs a positive worker count");
      }
    } else if (flag == "--batch-kb") {
      params.cluster.narwhal.batch_size_bytes = std::stoull(next()) * 1000;
    } else if (flag == "--shards") {
      params.cluster.exec_lanes = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--cross-ratio") {
      params.cross_ratio = std::stod(next());
    } else if (flag == "--zipf") {
      params.zipf_theta = std::stod(next());
    } else if (flag == "--hot-ratio") {
      params.hot_ratio = std::stod(next());
    } else if (flag == "--real-crypto") {
      params.cluster.signer_kind = SignerKind::kEd25519;
    } else if (flag == "--async-from") {
      async_from = Seconds(std::stoll(next()));
    } else if (flag == "--async-to") {
      async_to = Seconds(std::stoll(next()));
    } else if (flag == "--async-factor") {
      async_factor = std::stod(next());
    } else if (flag == "--trace") {
      params.cluster.trace = true;
      params.trace_path = next();
    } else if (flag == "--csv") {
      csv = true;
    } else if (flag == "--help" || flag == "-h") {
      Usage("usage");
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (async_from != kNever) {
    params.async_windows.push_back({async_from, async_to, async_factor});
  }
  const ClusterConfig& cluster = params.cluster;
  if (cluster.num_validators < 1 || params.faults >= cluster.num_validators) {
    Usage("need nodes >= 1 and faults < nodes");
  }
  if (params.warmup >= params.duration) {
    Usage("warmup must be below duration");
  }
  if (cluster.exec_lanes > 0 &&
      (cluster.system == SystemKind::kBaselineHs || cluster.system == SystemKind::kBatchedHs)) {
    Usage("--shards needs a Narwhal-based system (its clients submit executable payloads)");
  }
  if (params.cross_ratio < 0 || params.cross_ratio > 1 || params.hot_ratio < 0 ||
      params.hot_ratio > 1) {
    Usage("--cross-ratio and --hot-ratio must be within [0, 1]");
  }

  // The traced breakdown comes from run 0 in this process.
  const SweepResult result = RunSweep({{params, runs}}, cluster.trace ? 1 : jobs)[0];
  const std::string latency = LatencyCell(result, result.latency.Mean(), csv ? "%.3f" : "%.2f");
  const std::string latency_sd =
      LatencyCell(result, result.latency.StdDev(), csv ? "%.3f" : "%.2f");
  const std::string p99 = LatencyCell(result, result.p99.Mean(), csv ? "%.3f" : "%.2f");
  const ExperimentResult& first = result.first;
  if (csv) {
    std::printf("system,nodes,workers,faults,input_tps,tps,tps_stddev,avg_latency_s,"
                "latency_stddev_s,p99_latency_s,abandoned,exec_applied,exec_rejected,"
                "exec_cross\n");
    std::printf("%s,%u,%u,%u,%.0f,%.0f,%.0f,%s,%s,%s,%llu,%llu,%llu,%llu\n",
                SystemName(cluster.system), cluster.num_validators,
                cluster.workers_per_validator, params.faults, params.rate_tps, result.tps.Mean(), result.tps.StdDev(), latency.c_str(),
                latency_sd.c_str(), p99.c_str(),
                static_cast<unsigned long long>(first.abandoned_txs),
                static_cast<unsigned long long>(first.exec_applied),
                static_cast<unsigned long long>(first.exec_rejected),
                static_cast<unsigned long long>(first.exec_cross));
  } else {
    std::printf(
        "%-12s %6s %8s %7s %10s | %10s %8s | %9s %8s %9s | %10s %10s %9s | %10s %8s %10s\n",
        "system", "nodes", "workers", "faults", "input_tps", "tps", "tps_sd", "avg_lat_s",
        "lat_sd", "p99_lat_s", "cert_hits", "cert_miss", "abandoned", "exec_appl", "exec_rej",
        "exec_cross");
    std::printf(
        "%-12s %6u %8u %7u %10.0f | %10.0f %8.0f | %9s %8s %9s | %10llu %10llu %9llu | "
        "%10llu %8llu %10llu\n",
        SystemName(cluster.system), cluster.num_validators, cluster.workers_per_validator,
        params.faults, params.rate_tps,
        result.tps.Mean(), result.tps.StdDev(), latency.c_str(), latency_sd.c_str(), p99.c_str(),
        static_cast<unsigned long long>(first.cert_cache_hits),
        static_cast<unsigned long long>(first.cert_cache_misses),
        static_cast<unsigned long long>(first.abandoned_txs),
        static_cast<unsigned long long>(first.exec_applied),
        static_cast<unsigned long long>(first.exec_rejected),
        static_cast<unsigned long long>(first.exec_cross));
  }
  if (first.traced) {
    PrintLatencyBreakdown(first);
    if (!params.trace_path.empty()) {
      std::fprintf(stderr, "%s trace to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                   first.trace_written ? "wrote" : "FAILED to write",
                   params.trace_path.c_str());
    }
  }
  return 0;
}
