// ntlint — determinism & protocol-safety static analysis for this repo.
//
// The whole reproduction rests on one property: a seeded run is a pure
// function of its seed. The simulation harness *checks* that property
// (double-run event-hash compare), but a fuzz pass can only tell you the
// schedules it tried were deterministic. ntlint enforces the property's
// preconditions at the source level, where violations are introduced.
//
// Every rule reads one file's tokens, so the tool is one pass: LintPaths
// lints each file alone with LintSource and adds up the reports.
//
//   R1 nondet          banned wall-clock / ambient-entropy / threading /
//                      raw-file-IO identifiers outside src/sim/ and bench/
//                      (guards the WAL's one fsync barrier in
//                      src/store/store.cpp, which carries an allow);
//                      and, in every file, simulator included, the
//                      container ban: no std::unordered_* and no
//                      std::map/set/multimap/multiset keyed by a raw
//                      pointer. Hashed order is implementation-defined and
//                      address order varies with ASLR, so neither may reach
//                      a message, digest or commit order. FlatTable
//                      (src/crypto/digest_table.h) is the one hash table and
//                      has no begin()/end(); ordered books key by id or
//                      digest, like the DAG's per-round
//                      std::map<ValidatorId, CertPtr> (src/narwhal/dag.h).
//   R3 quorum-arith    literal threshold arithmetic (2f, 2f+1, f+1, n/3)
//                      outside the blessed Committee helpers — the "2f vs
//                      2f+1" slip class that breaks quorum intersection
//                      (guards the seeded mutation NarwhalCertQuorum reads,
//                      src/types/types.cpp).
//   R8 deferred-capture
//                      a lambda handed to the Scheduler captures locals by
//                      reference, or a retry's reschedule call fails to
//                      carry mutated state by value (the RetryBroadcast
//                      stale-attempt storm class; guards the DST workload
//                      lambdas, src/check/checker.cpp). This one cannot
//                      be structural: C++ has no way to forbid a
//                      by-reference capture in a callable a scheduler keeps.
//
// Retired rules, and what replaced them:
//
//   R2 (unordered-container iteration) and R5 (containers keyed by pointer):
//   the container ban and FlatTable's missing begin()/end() make their
//   patterns impossible to write. R7 is retired too.
//
//   R6 wal-before-send (a signature sent before its Store::Sync() barrier):
//   SigningLedger (src/store/ledger.h) holds the signing key and the store,
//   and each of its signing methods puts and syncs the statement's record
//   before it returns the signature. Primary and HotStuff hold only the
//   ledger; what else they reach is a Verifier, which cannot sign.
//
//   R4 (codec drift between an Encode and its Decode): each wire type and
//   WAL record lists its fields once, and EncodeWire, DecodeWire and
//   WireSizeOf walk that list (src/common/codec.h). RecordList and CodecList
//   reject a hand-written codec pair with no field list.
//
//   R9 registry-exhaustive (the message ids, structs, handlers and codecs
//   drifting apart): each message struct M derives from MessageOf<M, id>,
//   each node dispatches through Dispatch over its Handles list, and
//   CheckMessageTable (src/net/message.h, applied in
//   src/runtime/message_table.h) fails the build for an id with no struct or
//   a struct no node handles. tests/fuzz_decode_test.cpp fuzzes one
//   CodecList, whose TwoSidedCodec constraint (src/common/codec.h) rejects a
//   one-sided codec. A garbage frame cannot crash a decoder because
//   Reader's getters are total (src/common/codec.h): a read past the end
//   yields zeros or an empty view and clears ok(); no getter touches memory
//   outside the input.
//
//   tests/compile_fail/ holds one compile-fail fixture per retired bug
//   shape (ctest label "lint").
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

namespace nt {
namespace lint {

// Rule identifiers (also the names accepted inside allow annotations).
inline constexpr const char* kRuleNondet = "nondet";
inline constexpr const char* kRuleQuorumArith = "quorum-arith";
inline constexpr const char* kRuleDeferredCapture = "deferred-capture";

struct RuleInfo {
  const char* id;
  const char* number;  // "R1".."R8".
  const char* description;
};

// Every rule, in R1..R8 order with R2 and R4-R7 retired. Drives allow
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

// Lints one file given as an in-memory string and applies its allow
// annotations. `path` determines which rules apply (rule scoping is by
// directory, see rules.cpp); it does not have to exist on disk — tests lint
// synthetic fixtures this way.
FileReport LintSource(const std::string& path, const std::string& content);

// Adds one file's report to the summary (kept only if it has a finding or a
// stale annotation).
void AddReport(Summary* summary, FileReport report);

// Lints every .h/.hpp/.cpp/.cc file under the paths (files or directories;
// hidden directories and build trees "build*" are skipped) with LintSource,
// in sorted order, and adds up the reports.
Summary LintPaths(const std::vector<std::string>& paths);

// Renders findings + the suppression report to a string (the CLI output).
std::string FormatSummary(const Summary& summary, bool verbose);

// Renders the summary as a SARIF 2.1.0 log: one run declaring every rule in
// Rules(), with suppressed findings carrying an inSource suppression.
std::string FormatSarif(const Summary& summary);

}  // namespace lint
}  // namespace nt

#endif  // SRC_LINT_LINT_H_
