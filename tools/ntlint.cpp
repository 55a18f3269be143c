// ntlint CLI — determinism & protocol-safety lint for this repo.
//
//   ntlint [options] <path>...      paths are files or directories
//
// Options:
//   --verbose            also print suppressed findings inline
//   --rules              list the rule set and exit
//   --format=sarif       emit a SARIF 2.1.0 log instead of the text summary
//   --strict-allows      stale ntlint:allow annotations fail the run (CI mode)
//
// Exit status: 0 when every finding is suppressed by an explicit
// `// ntlint:allow(<rule>): <reason>` annotation (and, under
// --strict-allows, no annotation is stale), 1 otherwise. CI treats a nonzero
// exit as a red build.
#include <cstdio>
#include <string>
#include <vector>

#include "src/lint/lint.h"

namespace {

void PrintRules() {
  std::printf("ntlint rules:\n");
  for (const nt::lint::RuleInfo& rule : nt::lint::Rules()) {
    std::printf("  %-3s %-20s %s\n", rule.number, rule.id, rule.description);
  }
  std::printf(
      "\n"
      "suppress with:  // ntlint:allow(<rule>[,<rule>]): <reason>\n"
      "(same line as the finding, or the line directly above)\n");
}

constexpr const char* kUsage =
    "usage: ntlint [--verbose] [--rules] [--format=sarif] [--strict-allows] <path>...\n";

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  bool strict_allows = false;
  bool sarif = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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

  const nt::lint::Summary summary = nt::lint::LintPaths(paths);
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
