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
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tools/job_runner.h"

using namespace nt;

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "ntbench: %s\n(see the header of tools/ntbench.cpp for flags)\n", msg);
  std::exit(2);
}

// Parallel counterpart of RunAveraged. Run 0 executes in-process so its full
// ExperimentResult can supply the metadata fields (and any --trace output);
// the remaining runs fork via RunJobsForked and ship their three samples back
// over the pipe as a text line. Seeds follow RunAveraged's cumulative walk
// (run i uses seed + i*(i+1)/2) and samples feed the stats in run order, so
// the reported means and stddevs are bit-identical to a sequential sweep.
AveragedResult RunAveragedForked(const ExperimentParams& base, int runs, int jobs) {
  ExperimentResult first = RunExperiment(base);
  std::vector<std::array<double, 3>> samples(static_cast<size_t>(runs));
  samples[0] = {first.tps, first.avg_latency_s, first.p99_latency_s};
  RunJobsForked(
      static_cast<uint64_t>(runs) - 1, jobs,
      [&](uint64_t j) {
        const uint64_t i = j + 1;
        ExperimentParams p = base;
        p.seed = base.seed + i * (i + 1) / 2;
        p.trace = false;  // Tracing belongs to run 0 in the parent.
        ExperimentResult r = RunExperiment(p);
        // %.17g round-trips doubles exactly, so the parent's stats see the
        // same bits a sequential run would.
        std::printf("SAMPLE %.17g %.17g %.17g\n", r.tps, r.avg_latency_s, r.p99_latency_s);
        return 0;
      },
      [&](uint64_t j, const JobOutput& out) {
        const char* line = std::strstr(out.text.c_str(), "SAMPLE ");
        std::array<double, 3>& s = samples[static_cast<size_t>(j) + 1];
        if (out.exit_code != 0 || line == nullptr ||
            std::sscanf(line, "SAMPLE %lg %lg %lg", &s[0], &s[1], &s[2]) != 3) {
          std::fprintf(stderr, "ntbench: worker for run %llu failed (exit %d)\n",
                       static_cast<unsigned long long>(j + 1), out.exit_code);
          std::exit(2);
        }
      });
  AveragedResult out;
  out.first = first;
  SampleStats tps, latency, p99;
  for (const std::array<double, 3>& s : samples) {
    tps.Add(s[0]);
    latency.Add(s[1]);
    p99.Add(s[2]);
  }
  out.tps_mean = tps.Mean();
  out.tps_stddev = tps.StdDev();
  out.latency_mean = latency.Mean();
  out.latency_stddev = latency.StdDev();
  out.p99_mean = p99.Mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentParams params;
  params.system = SystemKind::kTusk;
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
      params.system = *system;
    } else if (flag == "--nodes") {
      params.nodes = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--workers") {
      params.workers = static_cast<uint32_t>(std::stoul(next()));
    } else if (flag == "--dedicated") {
      params.collocate = false;
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
      params.seed = std::stoull(next());
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
      params.shards = static_cast<uint32_t>(std::stoul(next()));
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
      params.trace = true;
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
  if (params.nodes < 1 || params.faults >= params.nodes) {
    Usage("need nodes >= 1 and faults < nodes");
  }
  if (params.warmup >= params.duration) {
    Usage("warmup must be below duration");
  }
  if (params.shards > 0 &&
      (params.system == SystemKind::kBaselineHs || params.system == SystemKind::kBatchedHs)) {
    Usage("--shards needs a Narwhal-based system (its clients submit executable payloads)");
  }
  if (params.cross_ratio < 0 || params.cross_ratio > 1 || params.hot_ratio < 0 ||
      params.hot_ratio > 1) {
    Usage("--cross-ratio and --hot-ratio must be within [0, 1]");
  }

  AveragedResult result = (jobs > 1 && runs > 1) ? RunAveragedForked(params, runs, jobs)
                                                 : RunAveraged(params, runs);
  if (csv) {
    std::printf("system,nodes,workers,faults,input_tps,tps,tps_stddev,avg_latency_s,"
                "latency_stddev_s,p99_latency_s,abandoned,exec_applied,exec_rejected,"
                "exec_cross\n");
    std::printf("%s,%u,%u,%u,%.0f,%.0f,%.0f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu\n",
                result.first.system.c_str(), result.first.nodes, result.first.workers,
                result.first.faults, result.first.input_tps, result.tps_mean, result.tps_stddev,
                result.latency_mean, result.latency_stddev, result.p99_mean,
                static_cast<unsigned long long>(result.first.abandoned_txs),
                static_cast<unsigned long long>(result.first.exec_applied),
                static_cast<unsigned long long>(result.first.exec_rejected),
                static_cast<unsigned long long>(result.first.exec_cross));
  } else {
    PrintSweepHeader();
    PrintSweepRow(result);
  }
  if (result.first.traced) {
    PrintLatencyBreakdown(result.first);
    if (!params.trace_path.empty()) {
      std::fprintf(stderr, "%s trace to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                   result.first.trace_written ? "wrote" : "FAILED to write",
                   params.trace_path.c_str());
    }
  }
  return 0;
}
