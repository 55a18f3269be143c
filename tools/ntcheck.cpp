// ntcheck: deterministic simulation-testing CLI (see src/check/).
//
//   ntcheck --seeds 64                 fuzz 64 seeded fault schedules
//   ntcheck --seeds 64 --start 1000    ... starting from seed 1000
//   ntcheck --system tusk              pin the system (default: seed picks)
//   ntcheck --system both              Tusk on even seeds, Narwhal-HS on odd
//                                      ones (the mutation gate's split)
//   ntcheck --shards 4                 pin execution lanes per validator
//   ntcheck --bug NAME                 mutation mode: enable a seeded bug
//                                      (repeatable; names in kSeededBugRows)
//   ntcheck --replay FILE              replay one repro file
//   ntcheck --corpus FILE              replay every repro block in FILE
//   ntcheck --no-shrink                report failures without minimizing
//   ntcheck --out FILE                 write the shrunk repro here
//   ntcheck --jobs N                   fuzz seeds across N forked workers
//
// --jobs forks one process per seed (N at a time) and merges the captured
// output in seed order, so verdicts are byte-identical to a sequential
// sweep. It applies to the seed-sweep mode only: --replay and --corpus stay
// sequential, --bug ignores it (the sweep stops at the first violation, an
// inherently sequential contract), and --out is refused under --jobs
// (concurrent failing seeds would race on the file; shrunk repros still
// print inline).
//
// Exit code 0 = all schedules clean, 1 = invariant violation, 2 = usage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "tools/job_runner.h"

#include "src/check/checker.h"
#include "src/check/shrinker.h"

namespace {

using nt::CheckResult;
using nt::FaultSchedule;
using nt::SystemKind;

void PrintVerdict(const FaultSchedule& schedule, const CheckResult& result) {
  std::printf("seed %-8llu %-10s n=%-3u faults=%-2zu commits=%-5llu %s\n",
              static_cast<unsigned long long>(schedule.seed), nt::SystemFlagName(schedule.system),
              schedule.validators, schedule.FaultCount(),
              static_cast<unsigned long long>(result.commits), result.Summary().c_str());
  for (const nt::Violation& v : result.violations) {
    std::printf("    [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
}

// Runs one failing schedule through the shrinker and reports/writes the
// minimized repro. Returns the shrunk schedule's encoding.
void ShrinkAndReport(const FaultSchedule& schedule, bool shrink, const std::string& out_path) {
  if (!shrink) {
    return;
  }
  std::printf("shrinking...\n");
  nt::ShrinkResult shrunk = nt::Shrink(schedule);
  std::printf("shrunk to n=%u faults=%zu after %u runs: %s\n", shrunk.schedule.validators,
              shrunk.schedule.FaultCount(), shrunk.runs, shrunk.verdict.Summary().c_str());
  std::string encoded = shrunk.schedule.Encode();
  std::printf("---- repro ----\n%s---------------\n", encoded.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << encoded;
    std::printf("repro written to %s\n", out_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 16;
  uint64_t start = 1;
  std::optional<SystemKind> system;
  bool both_systems = false;
  bool shrink = true;
  nt::SeededBugSet bugs;
  std::optional<uint32_t> shards;
  std::string replay_path;
  std::string corpus_path;
  std::string out_path;
  int jobs = 1;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--start") {
      start = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--system") {
      std::string v = next();
      if (v == "both") {
        both_systems = true;
      } else if (std::optional<SystemKind> kind = nt::ParseSystem(v);
                 kind.has_value() && nt::IsCheckedSystem(*kind)) {
        system = kind;
      } else {
        std::fprintf(stderr, "unknown system '%s'\n", v.c_str());
        return 2;
      }
    } else if (arg == "--shards") {
      uint64_t v = std::strtoull(next(), nullptr, 10);
      if (v < 1) {
        std::fprintf(stderr, "--shards needs a positive lane count\n");
        return 2;
      }
      shards = static_cast<uint32_t>(v);
    } else if (arg == "--bug") {
      std::string v = next();
      std::optional<nt::SeededBug> bug = nt::ParseSeededBug(v);
      if (!bug.has_value()) {
        std::fprintf(stderr, "unknown bug '%s'\n", v.c_str());
        return 2;
      }
      bugs.insert(*bug);
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--corpus") {
      corpus_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--jobs") {
      jobs = std::atoi(next());
      if (jobs < 1) {
        std::fprintf(stderr, "--jobs needs a positive worker count\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::string bug_names;
      for (const nt::SeededBugRow& row : nt::kSeededBugRows) {
        bug_names += (bug_names.empty() ? "" : "|") + std::string(row.name);
      }
      std::printf(
          "usage: ntcheck [--seeds N] [--start S] [--system tusk|narwhal-hs|bullshark|both]\n"
          "               [--shards S]\n"
          "               [--bug %s]\n"
          "               [--replay FILE] [--corpus FILE] [--no-shrink] [--out FILE]\n"
          "               [--jobs N]\n",
          bug_names.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  int failures = 0;

  auto run_one = [&](const FaultSchedule& schedule, bool self_check) {
    CheckResult result = self_check ? nt::RunScheduleWithDeterminismCheck(schedule)
                                    : nt::RunSchedule(schedule);
    PrintVerdict(schedule, result);
    if (!result.ok()) {
      ++failures;
      ShrinkAndReport(schedule, shrink, out_path);
    }
  };

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::optional<FaultSchedule> schedule = FaultSchedule::Decode(buffer.str());
    if (!schedule.has_value()) {
      std::fprintf(stderr, "cannot parse repro %s\n", replay_path.c_str());
      return 2;
    }
    run_one(*schedule, /*self_check=*/true);
    return failures > 0 ? 1 : 0;
  }

  if (!corpus_path.empty()) {
    std::ifstream in(corpus_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", corpus_path.c_str());
      return 2;
    }
    // Repro blocks separated by `---` lines; '#' comments allowed.
    std::string line;
    std::string block;
    uint32_t blocks = 0;
    auto flush = [&] {
      if (block.find('=') == std::string::npos) {
        block.clear();
        return;  // Blank/comment-only block.
      }
      std::optional<FaultSchedule> schedule = FaultSchedule::Decode(block);
      if (!schedule.has_value()) {
        std::fprintf(stderr, "cannot parse corpus block ending at line %u\n", blocks);
        std::exit(2);
      }
      ++blocks;
      run_one(*schedule, /*self_check=*/false);
      block.clear();
    };
    while (std::getline(in, line)) {
      if (line.rfind("---", 0) == 0) {
        flush();
      } else {
        block += line;
        block += '\n';
      }
    }
    flush();
    std::printf("corpus: %u repro(s), %d failure(s)\n", blocks, failures);
    return failures > 0 ? 1 : 0;
  }

  // The seed draw never picks Bullshark nor adds execution lanes (frozen for
  // corpus stability), so a mutation that needs either surfaces only on
  // pinned schedules: default each pin its row asks for. A row's system pin
  // also wins over --system both, as in the mutation gate.
  for (const nt::SeededBugRow& row : nt::kSeededBugRows) {
    if (!bugs.contains(row.bug)) {
      continue;
    }
    if (row.system.has_value() && !system.has_value()) {
      system = row.system;
    }
    if (row.lanes > 1 && !shards.has_value()) {
      shards = row.lanes;
    }
  }

  auto run_seed = [&](uint64_t i) {
    uint64_t seed = start + i;
    std::optional<SystemKind> pin = system;
    if (both_systems && !pin.has_value()) {
      pin = nt::AlternateSystem(seed);
    }
    FaultSchedule schedule = nt::GenerateSchedule(seed, pin);
    if (shards.has_value()) {
      schedule.shards = *shards;
    }
    schedule.bugs = bugs;
    // Determinism self-check piggybacks on the first schedule of each batch.
    run_one(schedule, /*self_check=*/i == 0);
  };

  if (jobs > 1 && !bugs.empty()) {
    std::fprintf(stderr, "note: --bug stops at the first violation; ignoring --jobs\n");
    jobs = 1;
  }
  if (jobs > 1 && !out_path.empty()) {
    std::fprintf(stderr, "--out cannot be combined with --jobs (workers would race on the "
                         "file); drop one of them\n");
    return 2;
  }

  if (jobs > 1) {
    // Each worker runs one seed in a forked copy of this process and the
    // captured output is re-emitted in seed order, so the merged stream and
    // the exit code match a sequential sweep exactly.
    nt::RunJobsForked(
        seeds, jobs,
        [&](uint64_t i) {
          failures = 0;  // This fork reports only its own seed's verdict.
          run_seed(i);
          return failures > 0 ? 1 : 0;
        },
        [&](uint64_t, const nt::JobOutput& out) {
          std::fputs(out.text.c_str(), stdout);
          // One failure per failing seed, matching the sequential count (a
          // crashed worker reports 128+signal; it still counts once).
          failures += out.exit_code != 0 ? 1 : 0;
        });
  } else {
    for (uint64_t i = 0; i < seeds; ++i) {
      run_seed(i);
      if (failures > 0 && !bugs.empty()) {
        break;  // Mutation mode: first caught violation proves the point.
      }
    }
  }
  std::printf("%llu seed(s), %d failure(s)\n", static_cast<unsigned long long>(seeds), failures);
  return failures > 0 ? 1 : 0;
}
