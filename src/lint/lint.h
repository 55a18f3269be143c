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
//   R1 nondet          banned wall-clock / ambient-entropy / threading /
//                      raw-file-IO identifiers outside src/sim/ and bench/
//                      (guards the WAL's one fsync barrier,
//                      src/store/store.cpp:209, which carries an allow);
//                      and, in every file, simulator included, the
//                      container ban: no std::unordered_* and no
//                      std::map/set/multimap/multiset keyed by a raw
//                      pointer. Hashed order is implementation-defined and
//                      address order varies with ASLR, so neither may reach
//                      a message, digest or commit order. FlatTable
//                      (src/crypto/digest_table.h) is the one hash table and
//                      has no begin()/end(); ordered books key by id or
//                      digest, like the DAG's per-round
//                      std::map<ValidatorId, CertPtr> (src/narwhal/dag.h:132).
//   R3 quorum-arith    literal threshold arithmetic (2f, 2f+1, f+1, n/3)
//                      outside the blessed Committee helpers — the "2f vs
//                      2f+1" slip class that breaks quorum intersection
//                      (guards the seeded mutation at src/types/types.cpp:22).
//   R4 codec-mismatch  an Encode/Decode pair whose field op sequences drift
//                      (silent serialize/deserialize skew; guards e.g.
//                      Certificate::Encode/Decode, src/types/types.cpp:240).
//
// Whole-repo semantic-model rules (v2, src/lint/model.h):
//
//   R6 wal-before-send     a signed message leaves the node without a
//                          Store::Sync() durability barrier earlier on the
//                          path (checked through call-graph inlining) — the
//                          double-vote-through-amnesia class (guards the
//                          HotStuff timeout broadcast,
//                          src/hotstuff/hotstuff.cpp:184).
//   R8 deferred-capture    a lambda handed to the Scheduler captures locals
//                          by reference, or a retry's reschedule call fails
//                          to carry mutated state by value (the
//                          RetryBroadcast stale-attempt storm class; guards
//                          the DST workload lambdas,
//                          src/check/checker.cpp:316).
//   R9 registry-exhaustive a MessageTypeId with no registered message
//                          struct, a registered struct with no handler
//                          dispatch, a one-sided payload codec, or a
//                          two-sided payload codec missing from the
//                          fuzz_decode_test corpus (guards the
//                          wire-accounting-only struct at
//                          src/hotstuff/messages.h:77).
//
// R2 (unordered-container iteration) and R5 (containers keyed by pointer) are
// retired: the container ban and FlatTable's missing begin()/end() make
// their patterns impossible to write. R7 is retired too.
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
inline constexpr const char* kRuleQuorumArith = "quorum-arith";
inline constexpr const char* kRuleCodecMismatch = "codec-mismatch";
inline constexpr const char* kRuleWalBeforeSend = "wal-before-send";
inline constexpr const char* kRuleDeferredCapture = "deferred-capture";
inline constexpr const char* kRuleRegistryExhaustive = "registry-exhaustive";

struct RuleInfo {
  const char* id;
  const char* number;  // "R1".."R9".
  const char* description;
};

// Every rule, in R1..R9 order with R2, R5 and R7 retired. Drives allow
// parsing, `ntlint --rules` and the SARIF rule metadata.
const std::vector<RuleInfo>& Rules();

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
// Runs the per-file rules (R1, R3, R4, R8) only; the cross-file rules need
// the whole-repo model (model.h: LintRepoUnits / LintPaths).
FileReport LintSource(const std::string& path, const std::string& content);

// Recursively collects the .h/.cpp/.cc files under `root` (or `root` itself
// if it is a regular file), sorted lexicographically so runs are
// reproducible. Hidden directories and build trees ("build*") are skipped.
std::vector<std::string> CollectSourceFiles(const std::string& root);

// Lints every path (files or directories) and aggregates, including the
// whole-repo semantic-model rules R6 and R9 (implemented in model.cpp). R9's
// fuzz-corpus leg reads the tests/fuzz_decode_test.cpp LocateFuzzCorpus
// finds beside the roots, and is skipped when there is none.
Summary LintPaths(const std::vector<std::string>& paths);

// Renders findings + the suppression report to a string (the CLI output).
std::string FormatSummary(const Summary& summary, bool verbose);

// Renders the summary as a SARIF 2.1.0 log: one run declaring every rule in
// Rules(), with suppressed findings carrying an inSource suppression.
std::string FormatSarif(const Summary& summary);

}  // namespace lint
}  // namespace nt

#endif  // SRC_LINT_LINT_H_
