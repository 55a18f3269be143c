#include "src/lint/rules.h"

#include <algorithm>
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

// True when the template argument list opening at `open` has a raw pointer
// as its first argument (`std::map<Node*, T>`).
bool FirstTemplateArgIsPointer(const Toks& t, size_t open) {
  if (open >= t.size() || t[open].text != "<") {
    return false;
  }
  int angle = 1;
  int paren = 0;
  size_t last = open;
  for (size_t k = open + 1; k < t.size(); ++k) {
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
  return t[last].kind == TokKind::kPunct && t[last].text == "*";
}

void RunNondet(const std::string& path, const Toks& t, std::vector<Finding>* out) {
  // The simulator and the benchmark harness may own real time; no file may
  // own a container whose iteration order is not a function of its keys.
  const bool owns_real_time = ExemptFromNondet(path);
  // Bare spellings cover `using namespace std`.
  static const std::set<std::string> kHashedBare = {"unordered_map", "unordered_set",
                                                    "unordered_multimap", "unordered_multiset"};
  static const std::set<std::string> kOrdered = {"std::map", "std::set", "std::multimap",
                                                 "std::multiset"};
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
        t[i + 3].kind == TokKind::kIdent) {
      const std::string& header = t[i + 3].text;
      if (StartsWith(header, "unordered_")) {
        Report(out, kRuleNondet, t[i].line,
               "banned include <" + header +
                   ">: hashed std containers are banned everywhere; use FlatTable "
                   "(src/crypto/digest_table.h)");
      } else if (!owns_real_time && kBannedIncludes.count(header) > 0) {
        Report(out, kRuleNondet, t[i].line,
               "banned include <" + header + ">: wall-clock/threading/file-IO source outside src/sim/ and bench/");
      }
      i += 3;
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
    if (StartsWith(chain, "std::unordered_") || kHashedBare.count(chain) > 0) {
      Report(out, kRuleNondet, t[i].line,
             "banned container '" + chain +
                 "': bucket order is implementation-defined; use FlatTable (DigestMap/DigestSet, "
                 "iterated only through ForEachSorted) or an ordered container");
      i = end;
      continue;
    }
    if (kOrdered.count(chain) > 0 && FirstTemplateArgIsPointer(t, end + 1)) {
      Report(out, kRuleNondet, t[i].line,
             chain +
                 " keyed by a raw pointer: addresses vary run to run (ASLR/allocator), so its "
                 "order does too; key by id or digest");
      i = end;
      continue;
    }
    if (owns_real_time) {
      i = end;
      continue;
    }
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

// ------------------------------------------------------- R8 deferred-capture

// A function or method definition's body: the '{' and its matching '}'
// (t.size() when unbalanced).
struct FnSpan {
  std::string name;
  size_t open = 0;
  size_t close = 0;
};

// Index of the punctuation opening the bracket closed at `close` (which must
// hold `cc`). Returns t.size() when unbalanced.
size_t MatchBackward(const Toks& t, size_t close, const char* oc, const char* cc) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (t[i].kind == TokKind::kPunct) {
      if (t[i].text == cc) {
        ++depth;
      } else if (t[i].text == oc) {
        if (--depth == 0) {
          return i;
        }
      }
    }
  }
  return t.size();
}

// Names that look like `name ( ... ) {` but open control-flow blocks, not
// function bodies.
const std::set<std::string>& NotFnNames() {
  static const std::set<std::string> s = {
      "if",     "for",     "while",    "switch",   "catch",    "return",
      "sizeof", "alignof", "decltype", "new",      "delete",   "do",
      "else",   "try",     "operator", "constexpr", "noexcept", "alignas",
      "requires"};
  return s;
}

bool IsTrailingQual(const Token& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || t.text == "mutable");
}

// Tries to interpret the '{' at `brace` as a function body. Peels
// constructor-initializer groups (`: a_(x), b_{y} {`) right to left until the
// signature's parameter parens are found.
bool DetectFunction(const Toks& t, size_t brace, FnSpan* out) {
  size_t j = brace;
  while (j > 0 && IsTrailingQual(t[j - 1])) {
    --j;
  }
  if (j == 0) {
    return false;
  }
  --j;
  for (int guard = 0; guard < 64; ++guard) {
    if (t[j].kind != TokKind::kPunct || (t[j].text != ")" && t[j].text != "}")) {
      return false;
    }
    const bool parens = t[j].text == ")";
    size_t opener = MatchBackward(t, j, parens ? "(" : "{", parens ? ")" : "}");
    if (opener == 0 || opener >= t.size()) {
      return false;
    }
    size_t name_idx = opener - 1;
    if (t[name_idx].kind != TokKind::kIdent) {
      return false;
    }
    if (name_idx >= 1 && t[name_idx - 1].text == ",") {
      // Member initializer: the previous initializer's group ends just left
      // of the comma.
      if (name_idx < 2) {
        return false;
      }
      j = name_idx - 2;
      continue;
    }
    if (name_idx >= 1 && t[name_idx - 1].text == ":") {
      // First member initializer: the signature's ')' sits left of the ':'.
      if (name_idx < 2) {
        return false;
      }
      j = name_idx - 2;
      continue;
    }
    if (!parens) {
      return false;  // A brace group can only be an initializer, peeled above.
    }
    const std::string& name = t[name_idx].text;
    if (NotFnNames().count(name) > 0) {
      return false;
    }
    out->name = name;
    out->open = brace;
    out->close = MatchForward(t, brace, "{", "}");
    return true;
  }
  return false;
}

// Every function or method definition in the file, in token order.
std::vector<FnSpan> FunctionBodies(const Toks& t) {
  std::vector<FnSpan> fns;
  for (size_t i = 0; i < t.size(); ++i) {
    FnSpan fn;
    if (t[i].kind == TokKind::kPunct && t[i].text == "{" && DetectFunction(t, i, &fn)) {
      fns.push_back(std::move(fn));
    }
  }
  return fns;
}

// A lambda: its capture list and its body.
struct LambdaSpan {
  size_t intro = 0;      // '['
  size_t cap_close = 0;  // ']'
  size_t body_open = 0;  // '{'
  size_t body_close = 0; // '}'
};

// Is the '[' at `i` a lambda introducer (vs a subscript or an attribute)?
bool LambdaAt(const Toks& t, size_t i, LambdaSpan* out) {
  if (t[i].kind != TokKind::kPunct || t[i].text != "[") {
    return false;
  }
  if (i > 0) {
    const Token& p = t[i - 1];
    if (p.kind == TokKind::kIdent && p.text != "return") {
      return false;  // arr[i]
    }
    if (p.kind == TokKind::kNumber || p.kind == TokKind::kString) {
      return false;
    }
    if (p.kind == TokKind::kPunct && (p.text == ")" || p.text == "]")) {
      return false;  // f(x)[i], a[i][j]
    }
  }
  size_t cap_close = MatchForward(t, i, "[", "]");
  if (cap_close >= t.size()) {
    return false;
  }
  size_t j = cap_close + 1;
  if (j < t.size() && t[j].text == "(") {
    j = MatchForward(t, j, "(", ")");
    if (j >= t.size()) {
      return false;
    }
    ++j;
  }
  while (j < t.size() && t[j].kind == TokKind::kIdent &&
         (t[j].text == "mutable" || t[j].text == "noexcept" || t[j].text == "constexpr")) {
    ++j;
  }
  if (j + 1 < t.size() && t[j].text == "-" && t[j + 1].text == ">") {
    j += 2;  // Trailing return type: skip the (simple) type name.
    while (j < t.size() && (t[j].kind == TokKind::kIdent || t[j].text == "::")) {
      ++j;
    }
  }
  if (j >= t.size() || t[j].text != "{") {
    return false;
  }
  out->intro = i;
  out->cap_close = cap_close;
  out->body_open = j;
  out->body_close = MatchForward(t, j, "{", "}");
  return true;
}

// Two legs, each judged inside one function body:
//   (a) a lambda handed to a Schedule* call captures by reference — the
//       callback outlives this stack frame, so the reference dangles when the
//       scheduler fires it.
//   (b) a retry lambda reschedules its own enclosing function but passes a
//       literal constant where a sibling argument carries captured-by-value
//       state — every attempt re-runs with the same value (the
//       RetryBroadcast stale-attempt storm: backoff never grew because the
//       attempt counter was re-seeded to 0 on every hop).
// Re-reading *members* through a captured `this` is the repo's fixed design
// (the member is the source of truth, fresh at fire time) and stays silent.
// Applies everywhere a Scheduler is in reach.
void RunDeferredCapture(const Toks& t, std::vector<Finding>* out) {
  for (const FnSpan& fn : FunctionBodies(t)) {
    if (fn.close >= t.size()) {
      continue;
    }
    for (size_t i = fn.open + 1; i < fn.close; ++i) {
      if (t[i].kind != TokKind::kIdent || !StartsWith(t[i].text, "Schedule") ||
          i + 1 >= t.size() || t[i + 1].text != "(") {
        continue;
      }
      size_t call_close = MatchForward(t, i + 1, "(", ")");
      if (call_close >= t.size()) {
        continue;
      }
      LambdaSpan lam;
      bool found = false;
      for (size_t k = i + 2; k < call_close; ++k) {
        if (t[k].kind == TokKind::kPunct && t[k].text == "[" && LambdaAt(t, k, &lam) &&
            lam.body_close < t.size()) {
          found = true;
          break;
        }
      }
      if (!found) {
        continue;
      }
      // Parse the capture list.
      bool ref_default = false;
      bool val_default = false;
      std::vector<std::string> ref_names;
      std::set<std::string> val_names;
      for (size_t k = lam.intro + 1; k < lam.cap_close;) {
        if (t[k].text == "&") {
          if (k + 1 < lam.cap_close && t[k + 1].kind == TokKind::kIdent) {
            ref_names.push_back(t[k + 1].text);
            k += 2;
          } else {
            ref_default = true;
            ++k;
          }
        } else if (t[k].text == "=") {
          val_default = true;
          ++k;
        } else if (t[k].kind == TokKind::kIdent) {
          if (t[k].text == "this") {
            ++k;
          } else if (k + 1 < lam.cap_close && t[k + 1].text == "=") {
            val_names.insert(t[k].text);  // Init-capture `alive = alive_`.
            int d = 0;
            k += 2;
            while (k < lam.cap_close) {
              const std::string& tx = t[k].text;
              if (t[k].kind == TokKind::kPunct) {
                if (tx == "(" || tx == "[" || tx == "{" || tx == "<") {
                  ++d;
                } else if (tx == ")" || tx == "]" || tx == "}" || tx == ">") {
                  --d;
                } else if (tx == "," && d == 0) {
                  break;
                }
              }
              ++k;
            }
          } else {
            val_names.insert(t[k].text);
            ++k;
          }
        } else {
          ++k;
        }
      }
      if (ref_default || !ref_names.empty()) {
        Finding f;
        f.rule = kRuleDeferredCapture;
        f.line = t[lam.intro].line;
        std::string what;
        if (ref_default) {
          what = "by reference ([&])";
        } else {
          for (const std::string& n : ref_names) {
            what += (what.empty() ? "'" : ", '") + n + "'";
          }
          what += " by reference";
        }
        f.message = "lambda scheduled via " + t[i].text + "(...) captures " + what +
                    " — the callback outlives this stack frame, so the reference dangles (or "
                    "silently aliases mutated state) when the scheduler fires; capture by value";
        out->push_back(std::move(f));
        continue;  // One finding per scheduled lambda.
      }
      // Self-reschedule leg.
      for (size_t k = lam.body_open + 1; k < lam.body_close; ++k) {
        if (t[k].kind != TokKind::kIdent || t[k].text != fn.name || k + 1 >= t.size() ||
            t[k + 1].text != "(") {
          continue;
        }
        if (k >= 1 && t[k - 1].text == ".") {
          continue;  // other.Name(...): a different object's method.
        }
        if (k >= 3 && t[k - 1].text == ">" && t[k - 2].text == "-" && !IsIdent(t[k - 3], "this")) {
          continue;
        }
        size_t rc = MatchForward(t, k + 1, "(", ")");
        if (rc >= t.size()) {
          continue;
        }
        struct Arg {
          bool has_ident = false;
          bool captured = false;
          bool nonempty = false;
        };
        std::vector<Arg> args;
        Arg cur;
        int d = 0;
        for (size_t m = k + 2; m < rc; ++m) {
          if (t[m].kind == TokKind::kPunct) {
            const std::string& tx = t[m].text;
            if (tx == "(" || tx == "[" || tx == "{" || tx == "<") {
              ++d;
            } else if (tx == ")" || tx == "]" || tx == "}" || tx == ">") {
              --d;
            } else if (tx == "," && d == 0) {
              args.push_back(cur);
              cur = Arg{};
              continue;
            }
          }
          cur.nonempty = true;
          if (t[m].kind == TokKind::kIdent && t[m].text != "true" && t[m].text != "false" &&
              t[m].text != "nullptr" && t[m].text != "this") {
            cur.has_ident = true;
            if (val_names.count(t[m].text) > 0) {
              cur.captured = true;
            }
          }
        }
        if (cur.nonempty) {
          args.push_back(cur);
        }
        bool sibling_captured = false;
        for (const Arg& a : args) {
          if (a.captured || (val_default && a.has_ident)) {
            sibling_captured = true;
          }
        }
        bool has_literal_only = false;
        for (const Arg& a : args) {
          if (a.nonempty && !a.has_ident) {
            has_literal_only = true;
          }
        }
        if (has_literal_only && sibling_captured) {
          Finding f;
          f.rule = kRuleDeferredCapture;
          f.line = t[k].line;
          f.message = "self-reschedule " + fn.name +
                      "(...) passes a literal constant where per-attempt state should advance — "
                      "every retry re-runs with the same value (the RetryBroadcast stale-attempt "
                      "storm); advance the captured copy and pass it on";
          out->push_back(std::move(f));
        }
        break;  // One reschedule per lambda is enough to judge.
      }
    }
  }
}

}  // namespace

std::vector<Finding> RunRules(const std::string& rel_path, const LexedFile& lex) {
  std::vector<Finding> findings;
  RunNondet(rel_path, lex.tokens, &findings);
  RunQuorumArith(rel_path, lex.tokens, &findings);
  RunDeferredCapture(lex.tokens, &findings);
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
