// perfbench — the repository's full-stack benchmark program. Runs one
// workload of the simulated Narwhal/Tusk/Bullshark/HotStuff stack, checks
// that its outputs are correct, and prints every metric by name and unit,
// ending with one JSON result line.
//
//   perfbench --workload wan-n20-tusk --seed 1 --seconds 25 --trace 0
//   perfbench --workload wan-n20-tusk --seed 1 --seconds 25 --trace 1
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics: each of the workload's
// simulations runs a fixed number of times (each repeat must reproduce its
// first run's event hash), so a run does the same work whatever the host's
// speed; --seconds is accepted but does not change the work. --trace 1 runs one
// seed untraced, traced and untraced again, which must all agree, and prints
// the per-layer metrics.
// Exit code 0 = every correctness check passed, 1 = a check failed,
// 2 = bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/layers.h"
#include "src/simulate.h"
#include "src/summary.h"

using namespace perfbench;

namespace {

// Timed batches of set-ups (Workload::setup_batch set-ups each) before each
// simulation.
constexpr uint32_t kSetupBatches = 3;

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n",
               msg.c_str());
  std::exit(2);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux.
}

void PrintWorkload(const Workload& w, uint64_t seed) {
  std::printf("workload %s: %s n=%u rate=%.0f tx/s tx=512B lanes=%u cross=%.2f zipf=%.2f "
              "resubmit=%.0fs crashed=%zu restarts=%zu async_windows=%zu\n",
              w.name.c_str(), nt::SystemName(w.system), w.nodes, w.rate_tps, w.exec_lanes,
              w.cross_ratio, w.zipf_theta, nt::ToSeconds(w.resubmit_timeout), w.crashed.size(),
              w.restarts.size(), w.asyncs.size());
  std::printf("  window [%.0fs,%.0fs) submit [0,%.0fs) end %.0fs, %u simulation(s) from seed "
              "%llu\n",
              nt::ToSeconds(w.warmup), nt::ToSeconds(w.window_end), nt::ToSeconds(w.submit_for),
              nt::ToSeconds(w.end()), w.sub_seeds, static_cast<unsigned long long>(seed));
}

void PrintFingerprint(const char* kind, uint64_t seed, const SimResult& r) {
  std::printf("%s seed=%llu events=%llu event_hash=%016llx setup_s=%.4f run_s=%.3f\n", kind,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(r.events_fired),
              static_cast<unsigned long long>(r.event_hash), r.setup_s, r.run_s);
}

void Collect(uint64_t seed, const SimResult& r, std::vector<std::string>* violations) {
  for (const std::string& v : r.violations) {
    violations->push_back("seed " + std::to_string(seed) + ": " + v);
  }
}

void PrintViolations(const std::vector<std::string>& violations) {
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  if (violations.empty()) {
    std::printf("checks passed: prefix-consistent and exactly-once commits, liveness, "
                "execution agreement, determinism\n");
  }
}

void PrintSimulatedSummary(uint64_t offered, uint64_t committed,
                           const std::vector<double>& latencies) {
  std::printf("latency samples %zu: p50 %.3fs p90 %.3fs p99 %.3fs max %.3fs\n", latencies.size(),
              Percentile(latencies, 50), Percentile(latencies, 90), Percentile(latencies, 99),
              Percentile(latencies, 100));
  std::printf("offered samples %llu, committed %llu, uncommitted_frac %.6f\n",
              static_cast<unsigned long long>(offered), static_cast<unsigned long long>(committed),
              UncommittedFrac(offered, committed));
  std::printf("note: latency runs from each sample's scheduled submit time on the simulated "
              "clock, where the open-loop generator is never late (no lateness to report)\n");
}

int TimedRun(const Workload& w, uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  // The machine's speed drifts while a run goes on (other load on it only
  // ever adds time), so both host figures take the fastest of samples spread
  // over the whole run: set-ups are timed in batches before every
  // simulation, after one discarded warm-up batch.
  TimeSetups(w, SubSeed(seed, 0), w.setup_batch);
  std::vector<double> setups;
  auto time_setups = [&](uint64_t sub) {
    for (uint32_t b = 0; b < kSetupBatches; ++b) {
      setups.push_back(TimeSetups(w, sub, w.setup_batch));
    }
  };

  // Every seed runs `repeats` times. The first run of a seed gives its
  // simulated-clock metrics; every repeat must reproduce it exactly. The host
  // figure is the fastest run: the seeds differ in work by well under 1%.
  std::vector<SimResult> first;
  double fastest_run_s = std::numeric_limits<double>::infinity();
  std::vector<std::string> violations;
  for (uint32_t k = 0; k < w.repeats; ++k) {
    for (uint32_t i = 0; i < w.sub_seeds; ++i) {
      const uint64_t sub = SubSeed(seed, i);
      time_setups(sub);
      SimResult r = Simulate(w, sub, /*traced=*/false);
      PrintFingerprint("sim", sub, r);
      fastest_run_s = std::min(fastest_run_s, r.run_s);
      if (k == 0) {
        Collect(sub, r, &violations);
        first.push_back(std::move(r));
      } else if (!r.SameSimulation(first[i])) {
        violations.push_back("seed " + std::to_string(sub) +
                             ": a repeated simulation diverged from the first");
      }
    }
  }

  uint64_t window_txs = 0;
  double window_s = 0;
  uint64_t offered = 0;
  uint64_t committed = 0;
  std::vector<double> latencies;
  for (const SimResult& r : first) {
    window_txs += r.window_txs;
    window_s += r.window_s;
    offered += r.offered_samples;
    committed += r.committed_samples;
    latencies.insert(latencies.end(), r.latencies_s.begin(), r.latencies_s.end());
  }
  std::map<std::string, double> values = {
      {"tps", static_cast<double>(window_txs) / window_s},
      {"latency_p50_s", Percentile(latencies, 50)},
      {"latency_mean_s", Mean(latencies)},
      {"host_s_per_sim_s", fastest_run_s / first[0].sim_s},
      {"setup_s", *std::min_element(setups.begin(), setups.end())},
      {"peak_rss_mb", PeakRssMb()},
  };
  std::printf("simulations %u (%u seeds x %u), fastest run_s %.3f, set-ups timed %zu x %u, "
              "wall %.2fs\n",
              w.sub_seeds * w.repeats, w.sub_seeds, w.repeats, fastest_run_s, setups.size(),
              w.setup_batch, SecondsSince(start));
  PrintSimulatedSummary(offered, committed, latencies);
  PrintViolations(violations);
  const bool correct = violations.empty();
  PrintResult(kEndToEndMetrics, values, correct, offered, correct ? offered - committed : offered);
  return correct ? 0 : 1;
}

int TracedRun(const Workload& w, uint64_t seed) {
  const uint64_t sub = SubSeed(seed, 0);
  std::vector<std::string> violations;
  const SimResult base = Simulate(w, sub, /*traced=*/false);
  PrintFingerprint("sim", sub, base);
  Collect(sub, base, &violations);
  SimResult traced = Simulate(w, sub, /*traced=*/true);
  PrintFingerprint("traced", sub, traced);
  Collect(sub, traced, &violations);
  // The first simulation of a process runs cold; the overhead compares the
  // traced run with the faster of the untraced runs on either side of it.
  const SimResult after = Simulate(w, sub, /*traced=*/false);
  PrintFingerprint("sim", sub, after);
  if (!traced.SameSimulation(base) || !after.SameSimulation(base)) {
    violations.push_back("the traced and untraced simulations differ");
  }

  std::map<std::string, double>& values = traced.layers;
  values["runtime.trace_overhead"] = traced.run_s / std::min(base.run_s, after.run_s);
  std::printf("traced wall %.3fs = primary %.3fs + worker %.3fs + hotstuff %.3fs + "
              "unattributed %.3fs; exec replay %.3fs\n",
              values["runtime.traced_wall_s"], values["narwhal.primary_busy_s"],
              values["narwhal.worker_busy_s"], values["hotstuff.busy_s"],
              values["runtime.unattributed_busy_s"], values["exec.busy_s"]);
  PrintSimulatedSummary(base.offered_samples, base.committed_samples, base.latencies_s);
  PrintViolations(violations);
  const bool correct = violations.empty();
  const uint64_t offered = base.offered_samples;
  PrintResult(kPerLayerMetrics, values, correct, offered,
              correct ? offered - base.committed_samples : offered);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      return SelfTest() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag);
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) {
    Usage("unknown --workload '" + workload + "'");
  }
  if (!have_seed || !(seconds > 0) || (trace != 0 && trace != 1)) {
    Usage("--seed, a positive --seconds and --trace 0|1 are required");
  }
  PrintWorkload(*w, seed);
  return trace == 1 ? TracedRun(*w, seed) : TimedRun(*w, seed);
}
