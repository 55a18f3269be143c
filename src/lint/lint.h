// ntlint — determinism & protocol-safety static analysis for this repo.
//
// The whole reproduction rests on one property: a seeded run is a pure
// function of its seed. PR 3's simulation harness *checks* that property
// (double-run event-hash compare), but a fuzz pass can only tell you the
// schedules it tried were deterministic. ntlint enforces the property's
// preconditions at the source level, where violations are introduced.
//
// Per-file token-pattern rules (v1):
//
//   R1 nondet          banned wall-clock / ambient-entropy / threading
//                      identifiers outside src/sim/ and bench/.
//   R2 unordered-iter  iteration over std::unordered_{map,set} or the
//                      repo's FlatTable (DigestMap, DigestSet) whose loop
//                      body lets the (seed-dependent, implementation-defined)
//                      bucket order escape into messages, hashes, encodings,
//                      or accumulated state.
//   R3 quorum-arith    literal threshold arithmetic (2f, 2f+1, f+1, n/3)
//                      outside the blessed Committee helpers — the "2f vs
//                      2f+1" slip class that breaks quorum intersection.
//   R4 codec-mismatch  an Encode/Decode pair whose field op sequences drift
//                      (silent serialize/deserialize skew).
//   R5 pointer-key     containers ordered or keyed by raw pointer value
//                      (ASLR makes the order differ run to run).
//
// Whole-repo semantic-model rules (v2, src/lint/model.h):
//
//   R6 wal-before-send     a signed message leaves the node without a
//                          Store::Sync() durability barrier earlier on the
//                          path (checked through call-graph inlining) — the
//                          double-vote-through-amnesia class.
//   R8 deferred-capture    a lambda handed to the Scheduler captures locals
//                          by reference, or a retry's reschedule call fails
//                          to carry mutated state by value (the
//                          RetryBroadcast stale-attempt storm class).
//   R9 registry-exhaustive a MessageTypeId with no registered message
//                          struct, a registered struct with no handler
//                          dispatch, a one-sided payload codec, or a
//                          two-sided payload codec missing from the
//                          fuzz_decode_test corpus.
//
// Findings are suppressable only with an inline annotation on the same line
// or the line above:
//
//   // ntlint:allow(<rule>[,<rule>...]): <reason>
//
// Every suppression is counted and echoed in the tool's summary, so the
// exception budget stays visible in code review.
#ifndef SRC_LINT_LINT_H_
#define SRC_LINT_LINT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/lexer.h"

namespace nt {
namespace lint {

// Rule identifiers (also the names accepted inside allow annotations).
inline constexpr const char* kRuleNondet = "nondet";
inline constexpr const char* kRuleUnorderedIter = "unordered-iter";
inline constexpr const char* kRuleQuorumArith = "quorum-arith";
inline constexpr const char* kRuleCodecMismatch = "codec-mismatch";
inline constexpr const char* kRulePointerKey = "pointer-key";
inline constexpr const char* kRuleWalBeforeSend = "wal-before-send";
inline constexpr const char* kRuleDeferredCapture = "deferred-capture";
inline constexpr const char* kRuleRegistryExhaustive = "registry-exhaustive";

// Every rule id, in R1..R9 order with R7 retired (drives allow parsing, SARIF
// metadata and the per-rule stale-allow accounting).
const std::vector<std::string>& AllRuleNames();

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string allow_reason;  // Set when suppressed.
};

// One `ntlint:allow(...)` annotation, parsed from a comment.
struct AllowAnnotation {
  int line = 0;
  std::vector<std::string> rules;
  std::string reason;
  bool used = false;
};

struct FileReport {
  std::string path;
  std::vector<Finding> findings;  // Ordered by line.
  // Annotations that matched no finding (stale) as (line, "rule,rule").
  std::vector<std::pair<int, std::string>> unused_allows;
};

struct Summary {
  std::vector<FileReport> files;
  int total = 0;
  int suppressed = 0;
  // Stale allow annotations bucketed per rule name they mention.
  std::map<std::string, int> stale_by_rule;
  int stale_allows() const {
    int n = 0;
    for (const auto& [rule, count] : stale_by_rule) {
      n += count;
    }
    return n;
  }
  // What gates the build.
  int unsuppressed() const { return total - suppressed; }
};

// Extracts `ntlint:allow(rule[,rule...]): reason` annotations from comments.
// Unknown rule names are dropped (a typo'd rule leaves the finding live).
std::vector<AllowAnnotation> ParseAllows(const std::vector<Comment>& comments);

// Repo-relative path ("src/..." or "bench/...") so rule scoping works no
// matter where the tool is invoked from.
std::string RepoRelPath(std::string path);

// Applies allow annotations to `findings` (marks suppressed / used) and
// records the stale ones on the report. Shared by the per-file and the
// whole-repo drivers so suppression semantics cannot drift.
void ApplyAllows(std::vector<Finding>* findings, std::vector<AllowAnnotation>* allows,
                 FileReport* report);

// Lints one translation unit given as an in-memory string. `path` determines
// which rules apply (rule scoping is by directory, see rules.cpp); it does
// not have to exist on disk — tests lint synthetic fixtures this way.
// Runs the per-file rules (R1–R5, R8) only; the cross-file rules need the
// whole-repo model (model.h: LintRepoUnits / LintPaths).
FileReport LintSource(const std::string& path, const std::string& content);

// As LintSource, with the sibling header's content supplied so rule R2 can
// see member declarations of the .cpp being linted (may be null).
FileReport LintSourceWithCompanion(const std::string& path, const std::string& content,
                                   const std::string* companion_content);

// Reads and lints a file from disk. A missing/unreadable file yields a
// single finding so CI cannot silently skip anything.
FileReport LintFile(const std::string& path);

// Recursively collects the .h/.cpp/.cc files under `root` (or `root` itself
// if it is a regular file), sorted lexicographically so runs are
// reproducible. Hidden directories and build trees ("build*") are skipped.
std::vector<std::string> CollectSourceFiles(const std::string& root);

// Lints every path (files or directories) and aggregates, including the
// whole-repo semantic-model rules R6 and R9 (implemented in model.cpp).
Summary LintPaths(const std::vector<std::string>& paths);

// Renders findings + the suppression report to a string (the CLI output).
std::string FormatSummary(const Summary& summary, bool verbose);

// Renders the summary as a SARIF 2.1.0 log: one run declaring rules R1–R9,
// with suppressed findings carrying an inSource suppression.
std::string FormatSarif(const Summary& summary);

}  // namespace lint
}  // namespace nt

#endif  // SRC_LINT_LINT_H_
