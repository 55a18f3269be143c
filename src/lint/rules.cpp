#include "src/lint/rules.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace nt {
namespace lint {
namespace {

using Toks = std::vector<Token>;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool PathContains(const std::string& path, const std::string& frag) {
  return path.find(frag) != std::string::npos;
}

// --------------------------------------------------------------- path scoping

// R1 is about wall-clock/entropy/thread *sources*; the simulator and the
// benchmark harness are the two places allowed to own real time.
bool ExemptFromNondet(const std::string& p) {
  return StartsWith(p, "src/sim/") || PathContains(p, "/sim/") || StartsWith(p, "bench/") ||
         PathContains(p, "/bench/");
}

// R3 runs where threshold arithmetic could plausibly appear. The crypto
// field arithmetic (ed25519 limbs, SHA round state) uses short variable
// names heavily, so the rule is scoped to protocol logic plus the coin.
bool InQuorumScope(const std::string& p) {
  if (p == "src/types/committee.h") {
    return false;  // The one blessed home for threshold arithmetic.
  }
  static const char* kDirs[] = {"src/narwhal/", "src/tusk/",    "src/bullshark/",
                                "src/hotstuff/", "src/types/",  "src/check/",
                                "src/exec/",    "src/runtime/", "src/crypto/coin"};
  for (const char* d : kDirs) {
    if (StartsWith(p, d)) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- token helpers

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// Index of the punctuation closing the bracket opened at `open` (which must
// hold `oc`). Returns t.size() when unbalanced.
size_t MatchForward(const Toks& t, size_t open, const char* oc, const char* cc) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct) {
      if (t[i].text == oc) {
        ++depth;
      } else if (t[i].text == cc) {
        if (--depth == 0) {
          return i;
        }
      }
    }
  }
  return t.size();
}

// Builds the qualified-name chain starting at ident index `i` ("std :: mutex"
// -> "std::mutex") and sets `*end` to the index of the chain's last token.
std::string ChainAt(const Toks& t, size_t i, size_t* end) {
  std::string chain = t[i].text;
  size_t j = i;
  while (j + 2 < t.size() && t[j + 1].kind == TokKind::kPunct && t[j + 1].text == "::" &&
         t[j + 2].kind == TokKind::kIdent) {
    chain += "::" + t[j + 2].text;
    j += 2;
  }
  *end = j;
  return chain;
}

void Report(std::vector<Finding>* out, const char* rule, int line, std::string msg) {
  Finding fnd;
  fnd.rule = rule;
  fnd.line = line;
  fnd.message = std::move(msg);
  out->push_back(std::move(fnd));
}

// ------------------------------------------------------------------ R1 nondet

void RunNondet(const std::string& path, const Toks& t, std::vector<Finding>* out) {
  if (ExemptFromNondet(path)) {
    return;
  }
  static const std::set<std::string> kBannedIncludes = {"chrono", "thread", "ctime", "unistd"};
  static const std::set<std::string> kBannedExact = {
      // Wall clocks (bare forms cover `using namespace std::chrono`).
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday", "clock_gettime",
      "localtime", "gmtime",
      // Ambient entropy / libc RNG: unseeded or seeded from the environment.
      "rand", "srand", "drand48", "random_device", "std::random_device",
      // Environment reads.
      "getenv", "std::getenv", "secure_getenv",
      // Threading: scheduling order is OS-dependent.
      "std::thread", "std::jthread", "std::async", "std::condition_variable",
      "std::condition_variable_any", "std::future", "std::promise",
      // Sleeps block on real time.
      "usleep", "nanosleep"};
  // Mutexes are flagged at their *declaration* (one finding per lock, not per
  // lock_guard use) so a deliberate exception needs exactly one annotation.
  static const std::set<std::string> kMutexTypes = {"std::mutex", "std::recursive_mutex",
                                                    "std::shared_mutex", "std::timed_mutex"};
  // Raw file IO (the fsync/truncate family): real side effects on the host
  // filesystem, invisible to the simulator and non-replayable. Only the WAL
  // durability layer may touch these, and each call site carries an explicit
  // allow — no blanket path exemption.
  static const std::set<std::string> kBannedFileIo = {"fsync", "fdatasync", "fileno", "ftruncate",
                                                      "truncate"};

  for (size_t i = 0; i < t.size(); ++i) {
    // #include <chrono> etc.
    if (t[i].kind == TokKind::kPunct && t[i].text == "#" && i + 3 < t.size() &&
        IsIdent(t[i + 1], "include") && t[i + 2].text == "<" &&
        t[i + 3].kind == TokKind::kIdent && kBannedIncludes.count(t[i + 3].text) > 0) {
      Report(out, kRuleNondet, t[i].line,
             "banned include <" + t[i + 3].text + ">: wall-clock/threading/file-IO source outside src/sim/ and bench/");
      continue;
    }
    // Skip identifiers that are mid-chain (`a::b`); a leading `::` (global
    // qualification, e.g. `::fsync`) still starts a chain.
    if (t[i].kind != TokKind::kIdent ||
        (i > 0 && t[i - 1].text == "::" && i > 1 && t[i - 2].kind == TokKind::kIdent)) {
      continue;
    }
    size_t end = 0;
    std::string chain = ChainAt(t, i, &end);
    if (StartsWith(chain, "std::chrono") || StartsWith(chain, "std::this_thread")) {
      Report(out, kRuleNondet, t[i].line,
             "banned identifier '" + chain + "': wall-clock/thread source; protocol code must use the simulated clock (src/common/time.h)");
      i = end;
      continue;
    }
    if (kBannedExact.count(chain) > 0) {
      Report(out, kRuleNondet, t[i].line,
             "banned identifier '" + chain + "': nondeterminism source; derive randomness from nt::Rng and time from the Scheduler");
      i = end;
      continue;
    }
    if (kMutexTypes.count(chain) > 0 && end + 1 < t.size() &&
        t[end + 1].kind == TokKind::kIdent) {
      Report(out, kRuleNondet, t[i].line,
             "thread primitive '" + chain + "' declared: lock acquisition order is scheduler-dependent");
      i = end;
      continue;
    }
    // fsync(fd), ::truncate(path, len), ...: flagged only as calls (an
    // identifier merely *named* truncate — e.g. a member — stays silent via
    // the `.` check).
    if (kBannedFileIo.count(chain) > 0 && (i == 0 || t[i - 1].text != ".") &&
        end + 1 < t.size() && t[end + 1].text == "(") {
      Report(out, kRuleNondet, t[i].line,
             "banned call '" + chain + "(...)': raw file IO; durability effects go through the Store interface (per-site allow in the WAL layer only)");
      i = end;
      continue;
    }
    // time(nullptr) / time(NULL) / time(0): wall clock through libc.
    if ((chain == "time" || chain == "std::time") && end + 2 < t.size() &&
        t[end + 1].text == "(" &&
        (t[end + 2].text == "nullptr" || t[end + 2].text == "NULL" || t[end + 2].text == "0")) {
      Report(out, kRuleNondet, t[i].line,
             "banned call '" + chain + "(...)': wall-clock read; use Scheduler::now()");
      i = end;
    }
  }
}

// --------------------------------------------------------- R2 unordered-iter

// Heuristic for "the loop body lets iteration order escape": it sends,
// schedules, hashes, encodes, streams, or appends to an order-preserving
// sink. Pure per-element reads/erases are order-insensitive and stay silent.
bool BodyEscapesOrder(const Toks& t, size_t first, size_t last) {
  static const std::set<std::string> kExact = {
      "Hash",     "Update",       "Finalize", "Encode",  "Serialize", "push_back",
      "emplace_back", "emplace",  "insert",   "append",  "PutU8",     "PutU16",
      "PutU32",   "PutU64",       "PutI64",   "PutBool", "PutVar",    "PutString",
      "PutRaw"};
  static const char* kPrefixes[] = {"Send", "Broadcast", "Schedule", "Publish", "Write"};
  for (size_t i = first; i <= last && i < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct && t[i].text == "<" && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "<") {
      return true;  // Stream output.
    }
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    if (kExact.count(t[i].text) > 0) {
      return true;
    }
    for (const char* p : kPrefixes) {
      if (StartsWith(t[i].text, p)) {
        return true;
      }
    }
  }
  return false;
}

// Collects names of variables (and members) declared with an unordered
// container type (the std ones and src/crypto/digest_table.h's FlatTable),
// plus `using` aliases of such types, into `unordered_vars`.
// Per-lane books — ordered sequences whose *elements* are unordered
// containers (`std::vector<std::unordered_map<...>> lanes_`) — go into
// `elem_unordered_vars`: the sequence itself iterates in index order, but a
// subscripted element (`lanes_[lane]`) is just as order-unstable as a bare
// unordered member.
void CollectUnorderedDecls(const Toks& t, std::set<std::string>* unordered_vars,
                           std::set<std::string>* elem_unordered_vars) {
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
      "FlatTable",     "DigestMap"};
  // Hashed tables spelled without template arguments.
  static const std::set<std::string> kUnorderedPlainTypes = {"DigestSet"};
  static const std::set<std::string> kSequenceTypes = {"vector", "deque", "array"};
  std::set<std::string>& vars = *unordered_vars;
  // Pass 0: sequences of unordered containers.
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kSequenceTypes.count(t[i].text) == 0 ||
        t[i + 1].text != "<") {
      continue;
    }
    size_t close = MatchForward(t, i + 1, "<", ">");
    if (close >= t.size()) {
      continue;
    }
    bool holds_unordered = false;
    for (size_t k = i + 2; k < close; ++k) {
      if (t[k].kind == TokKind::kIdent && kUnorderedTypes.count(t[k].text) > 0) {
        holds_unordered = true;
        break;
      }
    }
    if (!holds_unordered) {
      continue;
    }
    size_t j = close + 1;
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || IsIdent(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        (j + 1 >= t.size() || t[j + 1].text != "(")) {
      elem_unordered_vars->insert(t[j].text);
    }
  }
  std::set<std::string> alias_types;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    if (alias_types.count(t[i].text) > 0 && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::kIdent &&
        (t[i + 2].text == ";" || t[i + 2].text == "=" || t[i + 2].text == "{")) {
      vars.insert(t[i + 1].text);
      continue;
    }
    size_t close = i;
    if (kUnorderedTypes.count(t[i].text) > 0 && i + 1 < t.size() && t[i + 1].text == "<") {
      close = MatchForward(t, i + 1, "<", ">");
      if (close >= t.size()) {
        continue;
      }
    } else if (kUnorderedPlainTypes.count(t[i].text) == 0) {
      continue;
    }
    // `using Alias = std::unordered_map<...>;`
    size_t back = i;
    while (back >= 2 && (t[back - 1].text == "::" || IsIdent(t[back - 1], "std"))) {
      --back;
    }
    if (back >= 3 && t[back - 1].text == "=" && IsIdent(t[back - 3], "using")) {
      alias_types.insert(t[back - 2].text);
      continue;
    }
    size_t j = close + 1;
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || IsIdent(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        (j + 1 >= t.size() || t[j + 1].text != "(")) {
      vars.insert(t[j].text);
    }
  }
}

void RunUnorderedIter(const std::string& path, const Toks& t, const Toks* companion,
                      std::vector<Finding>* out) {
  (void)path;  // Applies everywhere: even sim-internal order must not escape.
  // Members are declared in the header and iterated in the .cpp, so the
  // driver passes the companion header's tokens for declaration collection.
  std::set<std::string> unordered_vars;
  std::set<std::string> elem_unordered_vars;
  CollectUnorderedDecls(t, &unordered_vars, &elem_unordered_vars);
  if (companion != nullptr) {
    CollectUnorderedDecls(*companion, &unordered_vars, &elem_unordered_vars);
  }
  if (unordered_vars.empty() && elem_unordered_vars.empty()) {
    return;
  }

  // Pass 2: loops whose sequence is an unordered container.
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "for") || t[i + 1].text != "(") {
      continue;
    }
    size_t close = MatchForward(t, i + 1, "(", ")");
    if (close >= t.size()) {
      continue;
    }
    std::string var;
    // Range-for: the sequence is the trailing identifier after the top-level
    // ':' (handles `m`, `obj.m`, `this->m`).
    int depth = 0;
    size_t colon = 0;
    for (size_t k = i + 2; k < close; ++k) {
      if (t[k].kind == TokKind::kPunct) {
        if (t[k].text == "(" || t[k].text == "[" || t[k].text == "{") {
          ++depth;
        } else if (t[k].text == ")" || t[k].text == "]" || t[k].text == "}") {
          --depth;
        } else if (t[k].text == ":" && depth == 0) {
          colon = k;
          break;
        }
      }
    }
    if (colon != 0 && t[close - 1].kind == TokKind::kIdent &&
        unordered_vars.count(t[close - 1].text) > 0) {
      var = t[close - 1].text;
    }
    // Range-for over a subscripted per-lane book: `: lanes_[lane])`.
    if (var.empty() && colon != 0 && t[close - 1].text == "]") {
      for (size_t k = colon + 1; k + 1 < close; ++k) {
        if (t[k].kind == TokKind::kIdent && elem_unordered_vars.count(t[k].text) > 0 &&
            t[k + 1].text == "[" && MatchForward(t, k + 1, "[", "]") == close - 1) {
          var = t[k].text;
          break;
        }
      }
    }
    // Iterator loop: `it = m.begin()` inside the for-header, with or without
    // a per-lane subscript (`deferred_[lane].begin()`).
    if (var.empty()) {
      for (size_t k = i + 2; k + 2 < close; ++k) {
        if (t[k].kind != TokKind::kIdent) {
          continue;
        }
        if (unordered_vars.count(t[k].text) > 0 && t[k + 1].text == "." &&
            (IsIdent(t[k + 2], "begin") || IsIdent(t[k + 2], "cbegin"))) {
          var = t[k].text;
          break;
        }
        if (elem_unordered_vars.count(t[k].text) > 0 && t[k + 1].text == "[") {
          size_t sub = MatchForward(t, k + 1, "[", "]");
          if (sub + 2 < close && t[sub + 1].text == "." &&
              (IsIdent(t[sub + 2], "begin") || IsIdent(t[sub + 2], "cbegin"))) {
            var = t[k].text;
            break;
          }
        }
      }
    }
    if (var.empty()) {
      continue;
    }
    size_t body_first = close + 1;
    size_t body_last;
    if (body_first < t.size() && t[body_first].text == "{") {
      body_last = MatchForward(t, body_first, "{", "}");
    } else {
      body_last = body_first;
      while (body_last < t.size() && t[body_last].text != ";") {
        ++body_last;
      }
    }
    if (BodyEscapesOrder(t, body_first, body_last)) {
      Report(out, kRuleUnorderedIter, t[i].line,
             "iteration over unordered container '" + var +
                 "' with an order-escaping body (sends/hashes/serializes/appends); iterate a "
                 "sorted snapshot or use an ordered container");
    }
  }
}

// ----------------------------------------------------------- R3 quorum-arith

void RunQuorumArith(const std::string& path, const Toks& t, std::vector<Finding>* out) {
  if (!InQuorumScope(path)) {
    return;
  }
  auto is_number = [&](size_t i, const char* v) {
    return i < t.size() && t[i].kind == TokKind::kNumber && t[i].text == v;
  };
  for (size_t i = 0; i < t.size(); ++i) {
    // `<committee-ish expr> / 3`: computing f (or n/3) from a committee size.
    if (t[i].kind == TokKind::kPunct && t[i].text == "/" && is_number(i + 1, "3")) {
      Report(out, kRuleQuorumArith, t[i].line,
             "literal division by 3: committee-size arithmetic belongs in "
             "Committee::MaxFaultyFor / quorum helpers (src/types/committee.h)");
      continue;
    }
    // Arithmetic on `f` — bare local or `committee.f()`.
    if (!IsIdent(t[i], "f")) {
      continue;
    }
    size_t start = i;
    if (i >= 2 && t[i - 1].text == "." && t[i - 2].kind == TokKind::kIdent) {
      start = i - 2;
    }
    size_t end = i;
    if (i + 2 < t.size() && t[i + 1].text == "(" && t[i + 2].text == ")") {
      end = i + 2;
    } else if (start != i) {
      continue;  // `x.f` without a call — member access named f, not ours.
    }
    bool flagged = false;
    if (start >= 2 && t[start - 1].text == "*" &&
        (is_number(start - 2, "2") || is_number(start - 2, "3"))) {
      flagged = true;  // 2*f, 3*f
    }
    if (end + 2 < t.size() && t[end + 1].text == "*" &&
        (is_number(end + 2, "2") || is_number(end + 2, "3"))) {
      flagged = true;  // f*2, f*3
    }
    if (end + 2 < t.size() && (t[end + 1].text == "+" || t[end + 1].text == "-") &&
        is_number(end + 2, "1")) {
      flagged = true;  // f+1, f-1
    }
    if (flagged) {
      Report(out, kRuleQuorumArith, t[i].line,
             "literal threshold arithmetic on 'f': use Committee::quorum_threshold() / "
             "validity_threshold() (or the *For(n) statics) so thresholds live in one audited "
             "place");
    }
  }
}

// --------------------------------------------------------- R4 codec-mismatch

struct CodecOp {
  std::string kind;  // u8,u16,u32,u64,i64,bool,var,str,raw,sub
  int size = -1;     // For raw: byte count when known (GetArray<N>).
  int line = 0;
};

struct CodecSide {
  std::vector<CodecOp> ops;
  int line = 0;
  bool present = false;
};

const std::map<std::string, std::string>& PutKinds() {
  static const std::map<std::string, std::string> m = {
      {"PutU8", "u8"},   {"PutU16", "u16"},   {"PutU32", "u32"}, {"PutU64", "u64"},
      {"PutI64", "i64"}, {"PutBool", "bool"}, {"PutVar", "var"}, {"PutString", "str"},
      {"PutRaw", "raw"}};
  return m;
}

const std::map<std::string, std::string>& GetKinds() {
  static const std::map<std::string, std::string> m = {
      {"GetU8", "u8"},   {"GetU16", "u16"},   {"GetU32", "u32"}, {"GetU64", "u64"},
      {"GetI64", "i64"}, {"GetBool", "bool"}, {"GetVar", "var"}, {"GetString", "str"},
      {"GetVarView", "var"}, {"GetStringView", "str"}, {"GetRaw", "raw"}, {"GetRawView", "raw"},
      {"GetArray", "raw"}};
  return m;
}

// True when token i is reached through a member access: `x.F` or `x->F`.
bool IsMemberAccess(const Toks& t, size_t i) {
  if (i == 0) {
    return false;
  }
  if (t[i - 1].text == ".") {
    return true;
  }
  return i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-";
}

std::vector<CodecOp> ExtractOps(const Toks& t, size_t first, size_t last, bool encode_side) {
  std::vector<CodecOp> ops;
  for (size_t i = first; i <= last && i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || i == 0) {
      continue;
    }
    const std::string& prev = t[i - 1].text;
    const bool called = i + 1 < t.size() &&
                        (t[i + 1].text == "(" || (t[i].text == "GetArray" && t[i + 1].text == "<"));
    if (!called) {
      continue;
    }
    if (IsMemberAccess(t, i)) {
      auto& kinds = encode_side ? PutKinds() : GetKinds();
      auto it = kinds.find(t[i].text);
      if (it != kinds.end()) {
        CodecOp op;
        op.kind = it->second;
        op.line = t[i].line;
        if (t[i].text == "GetArray" && i + 2 < t.size() &&
            t[i + 2].kind == TokKind::kNumber) {
          op.size = std::atoi(t[i + 2].text.c_str());
        }
        ops.push_back(op);
        continue;
      }
      if (encode_side && t[i].text == "Encode") {
        ops.push_back(CodecOp{"sub", -1, t[i].line});
      }
    } else if (prev == "::" && !encode_side && t[i].text == "Decode") {
      ops.push_back(CodecOp{"sub", -1, t[i].line});
    }
  }
  return ops;
}

std::string OpName(const CodecOp& op) {
  if (op.kind == "raw" && op.size > 0) {
    return "raw[" + std::to_string(op.size) + "]";
  }
  if (op.kind == "sub") {
    return "nested codec";
  }
  return op.kind;
}

void RunCodecMismatch(const std::string& path, const Toks& t, std::vector<Finding>* out) {
  (void)path;
  // Scope stack of struct/class names for inline member definitions.
  struct Scope {
    std::string name;
    int depth;
  };
  std::vector<Scope> scopes;
  int depth = 0;
  std::map<std::string, std::pair<CodecSide, CodecSide>> owners;  // name -> (enc, dec)

  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct) {
      if (t[i].text == "{") {
        // Record-open? Look back (bounded by statement punctuation) for
        // `struct X ... {` / `class X ... {`.
        for (size_t k = i; k-- > 0;) {
          const std::string& tx = t[k].text;
          if (tx == ";" || tx == "}" || tx == "{" || tx == ")") {
            break;
          }
          if ((IsIdent(t[k], "struct") || IsIdent(t[k], "class")) && k + 1 < t.size() &&
              t[k + 1].kind == TokKind::kIdent) {
            scopes.push_back(Scope{t[k + 1].text, depth});
            break;
          }
        }
        ++depth;
      } else if (t[i].text == "}") {
        --depth;
        if (!scopes.empty() && scopes.back().depth == depth) {
          scopes.pop_back();
        }
      }
      continue;
    }
    const bool is_codec_fn = IsIdent(t[i], "Encode") || IsIdent(t[i], "Decode");
    if (!is_codec_fn || i + 1 >= t.size() || t[i + 1].text != "(") {
      continue;
    }
    if (IsMemberAccess(t, i)) {
      continue;  // Member call, not a definition.
    }
    std::string owner;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::kIdent) {
      owner = t[i - 2].text;
    } else if (!scopes.empty()) {
      owner = scopes.back().name;
    }
    if (owner.empty()) {
      continue;
    }
    size_t close = MatchForward(t, i + 1, "(", ")");
    if (close >= t.size()) {
      continue;
    }
    size_t j = close + 1;
    while (j < t.size() && (IsIdent(t[j], "const") || IsIdent(t[j], "noexcept") ||
                            IsIdent(t[j], "override"))) {
      ++j;
    }
    if (j >= t.size() || t[j].text != "{") {
      continue;  // Declaration or call — no body.
    }
    size_t body_end = MatchForward(t, j, "{", "}");
    const bool encode_side = IsIdent(t[i], "Encode");
    CodecSide side;
    side.present = true;
    side.line = t[i].line;
    side.ops = ExtractOps(t, j + 1, body_end - 1, encode_side);
    auto& slot = owners[owner];
    CodecSide& target = encode_side ? slot.first : slot.second;
    if (!target.present) {
      target = std::move(side);
    }
  }

  for (const auto& [owner, sides] : owners) {
    const CodecSide& enc = sides.first;
    const CodecSide& dec = sides.second;
    if (!enc.present || !dec.present) {
      continue;  // One-sided codecs (digest preimages) are legitimate.
    }
    if (enc.ops.size() != dec.ops.size()) {
      Report(out, kRuleCodecMismatch, dec.line,
             owner + ": Encode emits " + std::to_string(enc.ops.size()) +
                 " codec ops but Decode consumes " + std::to_string(dec.ops.size()) +
                 " — a field is missing on one side");
      continue;
    }
    for (size_t k = 0; k < enc.ops.size(); ++k) {
      if (enc.ops[k].kind != dec.ops[k].kind) {
        Report(out, kRuleCodecMismatch, dec.ops[k].line,
               owner + ": codec op #" + std::to_string(k + 1) + " drifts — Encode writes " +
                   OpName(enc.ops[k]) + " (line " + std::to_string(enc.ops[k].line) +
                   ") but Decode reads " + OpName(dec.ops[k]));
        break;
      }
    }
  }
}

// ------------------------------------------------------------ R5 pointer-key

void RunPointerKey(const std::string& path, const Toks& t, std::vector<Finding>* out) {
  (void)path;
  static const std::set<std::string> kContainers = {"map",           "set",
                                                    "multimap",      "multiset",
                                                    "unordered_map", "unordered_set"};
  for (size_t i = 2; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kContainers.count(t[i].text) == 0) {
      continue;
    }
    if (!(t[i - 1].text == "::" && IsIdent(t[i - 2], "std"))) {
      continue;
    }
    if (t[i + 1].text != "<") {
      continue;
    }
    // Walk the first template argument (up to a top-level ',' or the
    // closing '>').
    int angle = 1;
    int paren = 0;
    size_t last = 0;
    for (size_t k = i + 2; k < t.size(); ++k) {
      const std::string& tx = t[k].text;
      if (t[k].kind == TokKind::kPunct) {
        if (tx == "<") {
          ++angle;
        } else if (tx == ">") {
          if (--angle == 0) {
            break;
          }
        } else if (tx == "(") {
          ++paren;
        } else if (tx == ")") {
          --paren;
        } else if (tx == "," && angle == 1 && paren == 0) {
          break;
        }
      }
      last = k;
    }
    if (last != 0 && t[last].kind == TokKind::kPunct && t[last].text == "*") {
      Report(out, kRulePointerKey, t[i].line,
             "std::" + t[i].text +
                 " keyed by a raw pointer: addresses vary run to run (ASLR/allocator), so any "
                 "order or hash derived from them is nondeterministic — key by id or digest");
    }
  }
}

}  // namespace

std::vector<Finding> RunRules(const std::string& rel_path, const LexedFile& lex,
                              const LexedFile* companion) {
  std::vector<Finding> findings;
  RunNondet(rel_path, lex.tokens, &findings);
  RunUnorderedIter(rel_path, lex.tokens, companion ? &companion->tokens : nullptr, &findings);
  RunQuorumArith(rel_path, lex.tokens, &findings);
  RunCodecMismatch(rel_path, lex.tokens, &findings);
  RunPointerKey(rel_path, lex.tokens, &findings);
  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });
  return findings;
}

}  // namespace lint
}  // namespace nt
