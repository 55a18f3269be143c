// Whole-repo semantic model for ntlint v2 (rules R6, R8 and R9).
//
// The per-file rules in rules.cpp see one translation unit at a time, which
// makes two expensive bug classes invisible: WAL-sync-before-send ordering
// (the double-vote-through-amnesia guard) and the message registry drifting
// out of sync with its codecs, handlers and fuzz corpus. Those are
// *cross-file* properties, so linting them needs a model of the repo, not a
// token stream of a file.
//
// Two-pass driver:
//
//   pass 1 (per file): lex, run the per-file rules, parse allow
//     annotations, and extract a FileFacts record — function/method
//     definitions with a token-level effect sequence (Sign / Store::Sync /
//     Network::Send / bare intra-class calls), the MessageTypeId enum,
//     TypeId() registrations, handler dispatch casts, Encode/Decode
//     definitions per codec owner, payload type references, and scheduler
//     callback findings (R8, which only needs one function's tokens).
//
//   pass 2 (whole repo): merge the facts in sorted-file order into a Model,
//     run R6/R9 over it, distribute the model findings back onto their
//     files, apply allow annotations, and aggregate the Summary.
//
#ifndef SRC_LINT_MODEL_H_
#define SRC_LINT_MODEL_H_

#include <string>
#include <vector>

#include "src/lint/lint.h"

namespace nt {
namespace lint {

// ---- pass-1 facts ----------------------------------------------------------

// One ordered entry in a function's effect sequence.
//   'g' Sign(...)            signature created
//   'y' Sync()               durability barrier (Store::Sync)
//   's' Send(...)/Broadcast  message leaves the node
//   'c' BareCall(...)        candidate for call-graph inlining; arg = callee
struct FactEffect {
  char kind = 0;
  int line = 0;
  std::string arg;
};

struct FactFunction {
  std::string owner;  // Class for methods ("" for free functions).
  std::string name;
  int line = 0;
  std::vector<FactEffect> effects;
};

struct FactEnumerator {
  std::string name;  // e.g. "kVote"
  int line = 0;
};

// `return MessageTypeId::kX;` inside a message struct's TypeId().
struct FactRegistration {
  std::string enumerator;   // "kX"
  std::string struct_name;  // "MsgX"
  int line = 0;
};

// An Encode or Decode *definition* attributed to its owner type.
struct FactCodecSide {
  std::string owner;
  bool encode = false;
  int line = 0;
};

// A capitalized type mentioned inside a registered message struct's body —
// candidate payload codec (filtered against codec owners at model time).
struct FactPayloadRef {
  std::string struct_name;
  std::string type_name;
};

struct FileFacts {
  std::string path;  // As given to the driver (what findings report).
  std::string rel;   // Repo-relative (rule scoping).
  std::vector<Finding> findings;  // Per-file rules (R1–R5) + R8, unsuppressed.
  std::vector<AllowAnnotation> allows;
  std::vector<FactFunction> functions;
  std::vector<FactEnumerator> enumerators;  // MessageTypeId only.
  std::vector<FactRegistration> registrations;
  std::vector<std::string> handler_casts;  // Struct names dispatched on.
  std::vector<FactCodecSide> codec_sides;
  std::vector<FactPayloadRef> payload_refs;
};

// An in-memory translation unit (tests lint synthetic multi-file repos this
// way; a unit whose path ends in .cpp picks up a same-stem .h unit as its R2
// companion, mirroring the on-disk driver).
struct SourceUnit {
  std::string path;
  std::string content;
};

// Pass 1 for one unit. `companion_content` may be null.
FileFacts ExtractFacts(const std::string& path, const std::string& content,
                       const std::string* companion_content);

// Rule R8 (deferred-capture). Lives with the model because it reuses the
// structural scanner (function spans), but it only needs one file's tokens,
// so it runs in pass 1 alongside R1–R5.
std::vector<Finding> RunDeferredCapture(const std::string& rel_path, const LexedFile& lex);

// Pass 1 for one on-disk file (reads the sibling .h companion itself). An
// unreadable file yields a FileFacts whose findings carry the io-error.
FileFacts ExtractFactsFromDisk(const std::string& path);

// Pass 2: runs R6/R9 over the merged facts. `fuzz_corpus` is the content
// of tests/fuzz_decode_test.cpp (null = corpus unknown, the corpus leg of R9
// is skipped). Findings carry the path of the file they belong to.
std::vector<Finding> RunModelRules(const std::vector<FileFacts>& files,
                                   const std::string* fuzz_corpus);

// Merges model findings into the per-file reports, applies allows, and
// aggregates. On-disk paths and in-memory fixtures both assemble here.
Summary AssembleSummary(std::vector<FileFacts> files, const std::string* fuzz_corpus);

// Whole pipeline over in-memory units (fixture tests).
Summary LintRepoUnits(const std::vector<SourceUnit>& units, const std::string* fuzz_corpus);

// Locates tests/fuzz_decode_test.cpp relative to the lint roots (the repo
// convention: roots like "src" or "<repo>/src" have a sibling tests/ dir).
// Returns "" when not found.
std::string LocateFuzzCorpus(const std::vector<std::string>& paths);

// Whole pipeline over paths with an explicit corpus file ("" = auto-locate,
// and if that fails the corpus leg of R9 is skipped).
Summary LintPathsWithCorpus(const std::vector<std::string>& paths,
                            const std::string& corpus_path);

}  // namespace lint
}  // namespace nt

#endif  // SRC_LINT_MODEL_H_
