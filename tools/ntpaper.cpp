// ntpaper — the paper's evaluation as one table of experiment rows: Fig. 1,
// 6, 7 and 8 and Table 1 of §7, the design ablations (Tusk vs DAG-Rider
// waves, worker placement, batch size, GC depth) and §1's message-complexity
// premise. Each row is one ExperimentParams and a run count under a figure
// name; every row runs through RunExperiment, averaged by the runner ntbench
// uses (tools/sweep.h). The rows go, in table order and at fixed precision,
// to BENCH_paper.json, one row per line. Stdout renders the same cells as
// the markdown tables EXPERIMENTS.md quotes, with the values derived from
// them (Fig. 7's SLO maxima, Table 1's ratios, §1's traffic shares).
//
//   ntpaper --jobs 4 --write BENCH_paper.json
//   ntpaper --figures fig8,table1 --jobs 4 --check BENCH_paper.json
//
// Flags:
//   --figures LIST  comma-separated figures to run, from fig1, fig6, fig7,
//                   fig8, table1, ablations, msgcx (default: all)
//   --jobs N        worker processes (default 1); the output is the same for
//                   every N
//   --write FILE    write the rows that ran to FILE
//   --check FILE    compare the rows that ran with FILE's rows of the same
//                   figures; print every difference and exit 1 on any
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/sweep.h"

using namespace nt;

namespace {

constexpr const char* kFigures[] = {"fig1",   "fig6",      "fig7", "fig8",
                                    "table1", "ablations", "msgcx"};

struct PaperRow {
  std::string figure;
  std::string label;  // What the params alone do not name: a Table 1 row, an ablation arm.
  SweepRow sweep;
};

std::string Format(const char* format, ...) {
  char text[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(text, sizeof(text), format, args);
  va_end(args);
  return text;
}

ExperimentParams Wan(SystemKind system, uint32_t nodes, double rate, int64_t duration_s,
                     int64_t warmup_s, uint64_t seed) {
  ExperimentParams params;
  params.cluster.system = system;
  params.cluster.num_validators = nodes;
  params.cluster.seed = seed;
  params.rate_tps = rate;
  params.duration = Seconds(duration_s);
  params.warmup = Seconds(warmup_s);
  return params;
}

// Table 1's network: a fixed 50 ms one-way delay (RTT = 100 ms), light load,
// and eager sealing and proposing, so latency counts consensus steps rather
// than batching.
constexpr double kRttSeconds = 0.1;
ExperimentParams LightLoad(SystemKind system, uint32_t nodes) {
  ExperimentParams params = Wan(system, nodes, 2000, 30, 8, 3);
  params.cluster.latency_kind = ClusterConfig::LatencyKind::kFixed;
  params.cluster.fixed_latency = Millis(50);
  params.cluster.narwhal.max_batch_delay = Millis(5);
  params.cluster.narwhal.max_header_delay = Millis(5);
  return params;
}

std::vector<PaperRow> PaperTable() {
  std::vector<PaperRow> table;
  auto add = [&](const char* figure, std::string label, const ExperimentParams& params,
                 int runs) { table.push_back({figure, std::move(label), {params, runs}}); };
  using enum SystemKind;
  constexpr SystemKind kTable1Systems[] = {kBaselineHs, kNarwhalHs, kTusk};

  // Fig. 1: one near-saturation point per configuration; the last two are
  // Tusk with 4 and 10 dedicated worker machines per validator.
  const struct {
    SystemKind system;
    uint32_t nodes;
    uint32_t workers;
    double rate;
  } fig1[] = {{kBaselineHs, 10, 1, 3000},  {kBatchedHs, 10, 1, 80000}, {kNarwhalHs, 10, 1, 140000},
              {kNarwhalHs, 50, 1, 100000}, {kTusk, 10, 1, 150000},     {kTusk, 50, 1, 100000},
              {kTusk, 4, 4, 500000},       {kTusk, 4, 10, 1200000}};
  for (const auto& point : fig1) {
    ExperimentParams params = Wan(point.system, point.nodes, point.rate, 20, 6, 21);
    params.cluster.workers_per_validator = point.workers;
    params.cluster.collocate = point.workers == 1;
    add("fig1", "", params, 2);
  }

  // Fig. 6: rates up to each configuration's saturation point (beyond it
  // nothing commits in the window; the paper plots up to saturation too).
  // As in the paper's figure the HotStuff mempools stop at n=20, and larger
  // committees saturate earlier on this substrate.
  const std::pair<SystemKind, std::vector<double>> fig6[] = {
      {kBaselineHs, {1000, 2000, 3000, 4000}},
      {kBatchedHs, {20000, 50000, 80000, 110000}},
      {kNarwhalHs, {20000, 60000, 100000, 140000}},
      {kTusk, {20000, 60000, 100000, 140000, 160000}}};
  for (uint32_t nodes : {10u, 20u, 50u}) {
    for (const auto& [system, rates] : fig6) {
      for (double rate : rates) {
        const bool hs_mempool = system == kBaselineHs || system == kBatchedHs;
        if ((nodes == 50 && hs_mempool) || (nodes >= 20 && rate > 140000) ||
            (nodes == 50 && rate > 120000)) {
          continue;
        }
        add("fig6", "", Wan(system, nodes, rate, 20, 6, 100), 2);
      }
    }
  }

  // Fig. 7: 4 validators, each with 1/4/7/10 workers on dedicated machines.
  for (SystemKind system : {kTusk, kNarwhalHs}) {
    for (uint32_t workers : {1u, 4u, 7u, 10u}) {
      for (double per_worker : {60000.0, 110000.0, 160000.0, 190000.0}) {
        ExperimentParams params = Wan(system, 4, per_worker * workers, 20, 6, 42);
        params.cluster.workers_per_validator = workers;
        params.cluster.collocate = false;
        add("fig7", "", params, 1);
      }
    }
  }

  // Fig. 8: n=10 with 0, 1 and 3 validators crashed from t=0. Clients
  // re-submit unsequenced transactions and fail over past crashed entry
  // validators (§8.4); the exhausted ones are the `abandoned` column.
  for (uint32_t faults : {0u, 1u, 3u}) {
    for (SystemKind system : {kBaselineHs, kBatchedHs, kNarwhalHs, kTusk}) {
      for (double rate : system == kBaselineHs ? std::vector<double>{1000, 2000}
                                               : std::vector<double>{30000, 70000}) {
        ExperimentParams params = Wan(system, 10, rate, 40, 10, 7);
        params.faults = faults;
        params.resubmit_timeout = Seconds(4);
        add("fig8", "", params, 2);
      }
    }
  }

  // Table 1, one label per row of the paper's table.
  for (SystemKind system : kTable1Systems) {
    add("table1", "avg-case", LightLoad(system, 4), 1);
  }
  for (SystemKind system : kTable1Systems) {
    ExperimentParams params = LightLoad(system, 10);
    params.faults = 3;
    params.duration = Seconds(60);
    params.warmup = Seconds(15);
    add("table1", "f-crash", params, 1);
  }
  {
    // Every delay x8 (an RTT of 0.8 s, far past the view timers).
    ExperimentParams params = LightLoad(kTusk, 4);
    params.async_windows.push_back({0, kNever, 8.0});
    params.duration = Seconds(120);
    params.warmup = Seconds(30);
    add("table1", "async-latency", params, 1);
  }
  for (SystemKind system : kTable1Systems) {
    // The paper's unstable network allows about one commit between periods
    // of asynchrony: 8 s of x30 delays, then 2 s calm, repeating.
    ExperimentParams params = LightLoad(system, 4);
    params.rate_tps = 4000;
    params.duration = Seconds(80);
    params.warmup = Seconds(5);
    for (TimePoint t = Seconds(6); t < Seconds(80); t += Seconds(10)) {
      params.async_windows.push_back({t, t + Seconds(8), 30.0});
    }
    add("table1", "unstable", params, 1);
  }
  for (SystemKind system : kTable1Systems) {
    // Uniform 0.25-25 s delays emulate an asynchronous scheduler: quorum
    // steps advance with the fastest 2f+1 messages, while a HotStuff chain
    // loses most races against its view timer.
    ExperimentParams params = LightLoad(system, 4);
    params.rate_tps = 400;
    params.cluster.latency_kind = ClusterConfig::LatencyKind::kUniform;
    params.cluster.uniform_lo = Millis(250);
    params.cluster.uniform_hi = Seconds(25);
    params.cluster.narwhal.max_batch_delay = Seconds(1);
    params.cluster.narwhal.max_header_delay = Seconds(1);
    params.duration = Seconds(1500);
    params.warmup = Seconds(500);
    add("table1", "async", params, 1);
  }

  // Ablations of DESIGN.md's design choices.
  for (SystemKind system : {kTusk, kDagRider}) {
    add("ablations", "A waves", Wan(system, 4, 20000, 25, 8, 17), 2);
  }
  for (bool collocate : {true, false}) {
    ExperimentParams params = Wan(kTusk, 4, 400000, 15, 5, 19);
    params.cluster.workers_per_validator = 4;
    params.cluster.collocate = collocate;
    add("ablations", collocate ? "B collocated" : "B dedicated", params, 1);
  }
  for (uint64_t batch_kb : {64u, 128u, 500u, 1000u}) {
    ExperimentParams params = Wan(kTusk, 10, 100000, 20, 6, 23);
    params.cluster.narwhal.batch_size_bytes = batch_kb * 1000;
    add("ablations", Format("C batch %lluKB", static_cast<unsigned long long>(batch_kb)), params,
        1);
  }
  for (Round depth : {10u, 50u, 200u}) {
    ExperimentParams params = Wan(kTusk, 4, 20000, 20, 5, 29);
    params.cluster.narwhal.gc_depth = depth;
    add("ablations", Format("D gc_depth %llu", static_cast<unsigned long long>(depth)), params, 1);
  }

  // §1: traffic per message type at load.
  for (SystemKind system : {kTusk, kNarwhalHs}) {
    add("msgcx", "", Wan(system, 10, 100000, 15, 5, 3), 1);
  }
  return table;
}

// A latency cell, or `none` when some run of the row had no latency sample.
std::string Latency(const SweepResult& r, double seconds, const char* none) {
  return r.latency_measured ? Format("%.4f", seconds) : none;
}

std::string JsonRow(const PaperRow& row, const SweepResult& r) {
  const ExperimentParams& p = row.sweep.params;
  const ExperimentResult& first = r.first;
  std::string json = Format(R"({"figure": "%s")", row.figure.c_str());
  if (!row.label.empty()) {
    json += Format(R"(, "label": "%s")", row.label.c_str());
  }
  json += Format(R"(, "system": "%s", "nodes": %u, "workers": %u, "dedicated": %s, "faults": %u)",
                 SystemName(p.cluster.system), p.cluster.num_validators,
                 p.cluster.workers_per_validator, p.cluster.collocate ? "false" : "true", p.faults);
  json += Format(R"(, "input_tps": %.0f, "runs": %d, "seed": %llu)", p.rate_tps, row.sweep.runs,
                 static_cast<unsigned long long>(p.cluster.seed));
  json += Format(R"(, "tps": %.1f, "tps_sd": %.1f)", r.tps.Mean(), r.tps.StdDev());
  json += Format(R"(, "latency_s": %s, "latency_sd": %s, "p99_s": %s)",
                 Latency(r, r.latency.Mean(), "null").c_str(),
                 Latency(r, r.latency.StdDev(), "null").c_str(),
                 Latency(r, r.p99.Mean(), "null").c_str());
  json += Format(R"(, "sampled": %llu, "abandoned": %llu, "max_commit_gap_s": %.3f)",
                 static_cast<unsigned long long>(first.sampled_txs),
                 static_cast<unsigned long long>(first.abandoned_txs), first.max_commit_gap_s);
  json += Format(R"(, "dag_certs": %llu, "dag_round_span": %llu)",
                 static_cast<unsigned long long>(first.dag_certs),
                 static_cast<unsigned long long>(first.dag_round_span));
  if (row.figure == "msgcx") {
    std::string types;
    for (const auto& [type, stats] : first.message_types) {
      types += Format(R"(%s"%s": [%llu, %llu])", types.empty() ? "" : ", ", type.c_str(),
                      static_cast<unsigned long long>(stats.messages),
                      static_cast<unsigned long long>(stats.bytes));
    }
    json += R"(, "types": {)" + types + "}";
  }
  return json + "}";
}

// FILE's rows of the figures in `figures`, one JSON line each, in file order.
std::vector<std::string> FileRows(const std::string& path, const std::set<std::string>& figures) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ntpaper: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    line.erase(0, line.find_first_not_of(' '));
    if (!line.empty() && line.back() == ',') {
      line.pop_back();
    }
    const std::string prefix = R"({"figure": ")";
    if (line.starts_with(prefix) &&
        figures.contains(line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size()))) {
      rows.push_back(line);
    }
  }
  return rows;
}

void RenderRows(const std::string& figure, const std::vector<PaperRow>& rows,
                const std::vector<SweepResult>& results) {
  std::printf("\n### %s\n\n", figure.c_str());
  std::printf("| row | system | n | workers | faults | input tx/s | tx/s | ± | latency s | ± | "
              "p99 s | abandoned | max gap s | DAG certs | DAG span |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].figure != figure) {
      continue;
    }
    const ExperimentParams& p = rows[i].sweep.params;
    const SweepResult& r = results[i];
    std::printf("| %s | %s | %u | %u%s | %u | %.0f | %.0f | %.0f | %s | %s | %s | %llu | %.1f | "
                "%llu | %llu |\n",
                rows[i].label.c_str(), SystemName(p.cluster.system), p.cluster.num_validators,
                p.cluster.workers_per_validator, p.cluster.collocate ? "" : " dedicated", p.faults, p.rate_tps, r.tps.Mean(),
                r.tps.StdDev(), Latency(r, r.latency.Mean(), "n/a").c_str(),
                Latency(r, r.latency.StdDev(), "n/a").c_str(),
                Latency(r, r.p99.Mean(), "n/a").c_str(),
                static_cast<unsigned long long>(r.first.abandoned_txs),
                r.first.max_commit_gap_s, static_cast<unsigned long long>(r.first.dag_certs),
                static_cast<unsigned long long>(r.first.dag_round_span));
  }
}

// The values each figure's claim is read from, derived from its rows.
void RenderDerived(const std::string& figure, const std::vector<PaperRow>& rows,
                   const std::vector<SweepResult>& results) {
  if (figure == "fig7") {
    // Max throughput under the paper's latency SLOs, per (system, workers).
    std::map<std::pair<std::string, uint32_t>, std::pair<double, double>> best;
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepResult& r = results[i];
      if (rows[i].figure != figure || !r.latency_measured) {
        continue;
      }
      const ClusterConfig& cluster = rows[i].sweep.params.cluster;
      auto& [at35, at45] = best[{SystemName(cluster.system), cluster.workers_per_validator}];
      at35 = std::max(at35, r.latency.Mean() <= 3.5 ? r.tps.Mean() : 0.0);
      at45 = std::max(at45, r.latency.Mean() <= 4.5 ? r.tps.Mean() : 0.0);
    }
    std::printf("\n| system | workers | max tx/s @3.5 s | max tx/s @4.5 s | x 1 worker @3.5 s |\n"
                "|---|---|---|---|---|\n");
    for (const auto& [key, slo] : best) {
      const auto base = best.find({key.first, 1});
      const double one = base != best.end() ? base->second.first : 0.0;
      std::printf("| %s | %u | %.0f | %.0f | %.2f |\n", key.first.c_str(), key.second, slo.first,
                  slo.second, one > 0 ? slo.first / one : 0.0);
    }
  } else if (figure == "table1") {
    // Latency in RTTs (under one sustained asynchrony window, in RTTs
    // stretched by its factor) and throughput as committed/input.
    std::printf("\n| row | system | latency (RTTs) | committed/input |\n|---|---|---|---|\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const ExperimentParams& p = rows[i].sweep.params;
      const SweepResult& r = results[i];
      if (rows[i].figure != figure) {
        continue;
      }
      const double rtt =
          kRttSeconds * (p.async_windows.size() == 1 ? p.async_windows[0].factor : 1.0);
      std::printf("| %s | %s | %s | %.2f |\n", rows[i].label.c_str(), SystemName(p.cluster.system),
                  r.latency_measured ? Format("%.1f", r.latency.Mean() / rtt).c_str() : "n/a",
                  r.tps.Mean() / p.rate_tps);
    }
  } else if (figure == "msgcx") {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].figure != figure) {
        continue;
      }
      const auto& types = results[i].first.message_types;
      uint64_t messages = 0, bytes = 0;
      for (const auto& [type, stats] : types) {
        messages += stats.messages;
        bytes += stats.bytes;
      }
      std::printf("\n%s:\n\n| type | messages | msg %% | bytes | byte %% |\n|---|---|---|---|---|\n",
                  SystemName(rows[i].sweep.params.cluster.system));
      for (const auto& [type, stats] : types) {
        std::printf("| %s | %llu | %.1f | %llu | %.2f |\n", type.c_str(),
                    static_cast<unsigned long long>(stats.messages),
                    100.0 * static_cast<double>(stats.messages) / static_cast<double>(messages),
                    static_cast<unsigned long long>(stats.bytes),
                    100.0 * static_cast<double>(stats.bytes) / static_cast<double>(bytes));
      }
    }
  }
}

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr, "ntpaper: %s\n(see the header of tools/ntpaper.cpp for flags)\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> figures(std::begin(kFigures), std::end(kFigures));
  int jobs = 1;
  std::string write_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--figures") {
      figures.clear();
      std::istringstream list(value);
      for (std::string name; std::getline(list, name, ',');) {
        if (std::find(std::begin(kFigures), std::end(kFigures), name) == std::end(kFigures)) {
          Usage("unknown figure " + name);
        }
        figures.insert(name);
      }
    } else if (flag == "--jobs") {
      jobs = std::atoi(value.c_str());
      if (jobs < 1) {
        Usage("--jobs needs a positive worker count");
      }
    } else if (flag == "--write") {
      write_path = value;
    } else if (flag == "--check") {
      check_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }

  std::vector<PaperRow> rows = PaperTable();
  std::erase_if(rows, [&](const PaperRow& row) { return !figures.contains(row.figure); });
  std::vector<SweepRow> sweep;
  for (const PaperRow& row : rows) {
    sweep.push_back(row.sweep);
  }
  const std::vector<SweepResult> results = RunSweep(sweep, jobs);
  std::vector<std::string> json;
  for (size_t i = 0; i < rows.size(); ++i) {
    json.push_back(JsonRow(rows[i], results[i]));
  }

  for (const char* figure : kFigures) {
    if (figures.contains(figure)) {
      RenderRows(figure, rows, results);
      RenderDerived(figure, rows, results);
    }
  }

  // Compare before writing, so `--check F --write F` still compares the old F.
  size_t differ = 0;
  if (!check_path.empty()) {
    const std::vector<std::string> expected = FileRows(check_path, figures);
    for (size_t i = 0; i < std::max(expected.size(), json.size()); ++i) {
      const std::string want = i < expected.size() ? expected[i] : "(no row)";
      const std::string got = i < json.size() ? json[i] : "(no row)";
      if (want != got) {
        std::fprintf(stderr, "- %s\n+ %s\n", want.c_str(), got.c_str());
        ++differ;
      }
    }
    std::fprintf(stderr, "ntpaper: %zu of %zu rows differ from %s\n", differ, json.size(),
                 check_path.c_str());
  }
  if (!write_path.empty()) {
    std::ofstream out(write_path);
    out << "{\"rows\": [\n";
    for (size_t i = 0; i < json.size(); ++i) {
      out << "  " << json[i] << (i + 1 < json.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out.flush()) {
      Usage("cannot write " + write_path);
    }
  }
  return differ == 0 ? 0 : 1;
}
