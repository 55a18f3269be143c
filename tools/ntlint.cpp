// ntlint CLI — determinism & protocol-safety lint for this repo.
//
//   ntlint [options] <path>...      paths are files or directories
//
// Options:
//   --verbose            also print suppressed findings inline
//   --rules              list the rule set and exit
//   --format=sarif       emit a SARIF 2.1.0 log instead of the text summary
//   --strict-allows      stale ntlint:allow annotations fail the run (CI mode)
//   --fuzz-corpus FILE   override the fuzz_decode_test.cpp location for R9
//
// Exit status: 0 when every finding is suppressed by an explicit
// `// ntlint:allow(<rule>): <reason>` annotation (and, under
// --strict-allows, no annotation is stale), 1 otherwise. CI treats a nonzero
// exit as a red build.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/lint/lint.h"
#include "src/lint/model.h"

namespace {

void PrintRules() {
  std::printf(
      "ntlint rules (per-file):\n"
      "  nondet               R1: wall-clock/entropy/thread identifiers (std::chrono, rand,\n"
      "                       random_device, getenv, std::thread, mutex declarations, ...)\n"
      "                       outside src/sim/ and bench/\n"
      "  unordered-iter       R2: iteration over std::unordered_{map,set} whose body sends,\n"
      "                       hashes, serializes, streams, or appends (order escapes)\n"
      "  quorum-arith         R3: literal threshold arithmetic (2*f, f+1, n/3) outside the\n"
      "                       Committee helpers in src/types/committee.h\n"
      "  codec-mismatch       R4: Encode/Decode pair whose codec op sequences drift\n"
      "  pointer-key          R5: std::map/set (or unordered) keyed by raw pointer value\n"
      "  deferred-capture     R8: Scheduler lambda captures by reference, or a retry\n"
      "                       reschedules itself with a stale literal constant\n"
      "\n"
      "ntlint rules (whole-repo semantic model):\n"
      "  wal-before-send      R6: signed message sent with no Store::Sync() earlier on the\n"
      "                       path (checked through two levels of call inlining)\n"
      "  registry-exhaustive  R9: MessageTypeId without codec/handler/fuzz-corpus legs\n"
      "\n"
      "suppress with:  // ntlint:allow(<rule>[,<rule>]): <reason>\n"
      "(same line as the finding, or the line directly above)\n");
}

constexpr const char* kUsage =
    "usage: ntlint [--verbose] [--rules] [--format=sarif] [--strict-allows]\n"
    "              [--fuzz-corpus FILE] <path>...\n";

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  bool strict_allows = false;
  bool sarif = false;
  std::string corpus_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ntlint: %s needs a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--rules") {
      PrintRules();
      return 0;
    } else if (arg == "--strict-allows") {
      strict_allows = true;
    } else if (arg == "--format=sarif") {
      sarif = true;
    } else if (arg == "--format=text") {
      sarif = false;
    } else if (arg == "--fuzz-corpus") {
      corpus_path = value("--fuzz-corpus");
    } else if (arg.rfind("--fuzz-corpus=", 0) == 0) {
      corpus_path = arg.substr(14);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ntlint: unknown flag '%s'\n%s", arg.c_str(), kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const nt::lint::Summary summary = nt::lint::LintPathsWithCorpus(paths, corpus_path);
  if (sarif) {
    std::fputs(nt::lint::FormatSarif(summary).c_str(), stdout);
  } else {
    std::fputs(nt::lint::FormatSummary(summary, verbose).c_str(), stdout);
  }
  if (summary.unsuppressed() != 0) {
    return 1;
  }
  if (strict_allows && summary.stale_allows() != 0) {
    if (!sarif) {
      std::fprintf(stderr,
                   "ntlint: --strict-allows: %d stale allow annotation(s) must be removed\n",
                   summary.stale_allows());
    }
    return 1;
  }
  return 0;
}
