// The averaged runner behind ntbench and ntpaper. A row is one
// configuration run `runs` times; run i uses seed + i*(i+1)/2 (each run adds
// its index to the previous run's seed). With jobs > 1 every run of every
// row forks through RunJobsForked and ships its result back as one text
// line: %.17g round-trips each double and samples reach the stats in run
// order, so the rows are bit-identical to a sequential sweep.
#ifndef TOOLS_SWEEP_H_
#define TOOLS_SWEEP_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/experiment.h"
#include "tools/job_runner.h"

namespace nt {

struct SweepRow {
  ExperimentParams params;
  int runs = 1;
};

struct SweepResult {
  ExperimentResult first;         // Run 0: the counters and observables a row reports.
  SampleStats tps, latency, p99;  // One sample per run, in run order.
  // False when some run had no latency sample: its latency reads 0, which
  // is no measurement, so the row has none either.
  bool latency_measured = true;
};

namespace sweep_internal {

// Every field of ExperimentResult a forked run ships back; the traced
// breakdown stays behind, so traced rows run in one process.
constexpr double ExperimentResult::*kDoubles[] = {
    &ExperimentResult::tps,           &ExperimentResult::avg_latency_s,
    &ExperimentResult::latency_stddev_s, &ExperimentResult::p50_latency_s,
    &ExperimentResult::p99_latency_s, &ExperimentResult::max_commit_gap_s};
constexpr uint64_t ExperimentResult::*kCounts[] = {
    &ExperimentResult::committed_txs,   &ExperimentResult::sampled_txs,
    &ExperimentResult::cert_cache_hits, &ExperimentResult::cert_cache_misses,
    &ExperimentResult::resubmitted_txs, &ExperimentResult::abandoned_txs,
    &ExperimentResult::exec_applied,    &ExperimentResult::exec_rejected,
    &ExperimentResult::exec_cross,      &ExperimentResult::dag_certs,
    &ExperimentResult::dag_round_span};

inline void Print(const ExperimentResult& r) {
  for (double ExperimentResult::*field : kDoubles) {
    std::printf("%.17g ", r.*field);
  }
  for (uint64_t ExperimentResult::*field : kCounts) {
    std::printf("%llu ", static_cast<unsigned long long>(r.*field));
  }
  for (const auto& [type, stats] : r.message_types) {
    std::printf("%s %llu %llu ", type.c_str(), static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.bytes));
  }
}

inline bool Parse(const std::string& text, ExperimentResult* r) {
  std::istringstream in(text);
  for (double ExperimentResult::*field : kDoubles) {
    in >> r->*field;
  }
  for (uint64_t ExperimentResult::*field : kCounts) {
    in >> r->*field;
  }
  if (in.fail()) {
    return false;
  }
  std::string type;
  Network::TypeStats stats;
  while (in >> type >> stats.messages >> stats.bytes) {
    r->message_types[type] = stats;
  }
  return in.eof();
}

}  // namespace sweep_internal

inline std::vector<SweepResult> RunSweep(const std::vector<SweepRow>& rows, int jobs) {
  std::vector<std::pair<size_t, uint64_t>> runs;  // (row, run index)
  for (size_t row = 0; row < rows.size(); ++row) {
    for (int i = 0; i < rows[row].runs; ++i) {
      runs.emplace_back(row, i);
    }
  }
  auto params_of = [&](uint64_t j) {
    ExperimentParams params = rows[runs[j].first].params;
    params.cluster.seed += runs[j].second * (runs[j].second + 1) / 2;
    if (runs[j].second > 0) {
      // Tracing belongs to run 0, whose breakdown the row reports.
      params.cluster.trace = false;
      params.trace_path.clear();
    }
    return params;
  };
  std::vector<SweepResult> out(rows.size());
  auto add = [&](uint64_t j, ExperimentResult r) {
    SweepResult& row = out[runs[j].first];
    row.tps.Add(r.tps);
    row.latency.Add(r.avg_latency_s);
    row.p99.Add(r.p99_latency_s);
    row.latency_measured = row.latency_measured && r.sampled_txs > 0;
    if (runs[j].second == 0) {
      row.first = std::move(r);
    }
  };
  if (jobs <= 1) {
    for (uint64_t j = 0; j < runs.size(); ++j) {
      add(j, RunExperiment(params_of(j)));
    }
    return out;
  }
  RunJobsForked(
      runs.size(), jobs,
      [&](uint64_t j) {
        sweep_internal::Print(RunExperiment(params_of(j)));
        return 0;
      },
      [&](uint64_t j, const JobOutput& output) {
        ExperimentResult r;
        if (output.exit_code != 0 || !sweep_internal::Parse(output.text, &r)) {
          std::fprintf(stderr, "sweep: run %llu of row %zu failed (exit %d)\n",
                       static_cast<unsigned long long>(runs[j].second), runs[j].first,
                       output.exit_code);
          std::exit(2);
        }
        add(j, std::move(r));
      });
  return out;
}

}  // namespace nt

#endif  // TOOLS_SWEEP_H_
