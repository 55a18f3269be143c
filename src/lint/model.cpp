#include "src/lint/model.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/lint/rules.h"

namespace nt {
namespace lint {
namespace {

using Toks = std::vector<Token>;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

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

bool IsMemberAccess(const Toks& t, size_t i) {
  if (i == 0) {
    return false;
  }
  if (t[i - 1].text == ".") {
    return true;
  }
  return i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-";
}

// ------------------------------------------------------------ structure scan
//
// One pass over the token stream producing every function/method *definition*
// (with its body span) and every struct/class body span. This is the spine of
// the semantic model: effects, WAL sites, registrations and R8 all hang off
// these spans.

struct FnSpan {
  std::string owner;  // "" for free functions.
  std::string name;
  int line = 0;
  size_t open = 0;   // Index of the body '{'.
  size_t close = 0;  // Index of the matching '}' (t.size() when unbalanced).
};

struct StructSpan {
  std::string name;
  int line = 0;
  size_t open = 0;
  size_t close = 0;
};

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
bool DetectFunction(const Toks& t, size_t brace, const std::string& scope_name, FnSpan* out) {
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
    out->line = t[name_idx].line;
    if (name_idx >= 2 && t[name_idx - 1].text == "::" &&
        t[name_idx - 2].kind == TokKind::kIdent) {
      out->owner = t[name_idx - 2].text;
    } else {
      out->owner = scope_name;
    }
    out->open = brace;
    out->close = MatchForward(t, brace, "{", "}");
    return true;
  }
  return false;
}

void ScanStructure(const Toks& t, std::vector<FnSpan>* fns, std::vector<StructSpan>* structs) {
  struct OpenScope {
    std::string name;
    int depth;
    size_t struct_idx;
  };
  std::vector<OpenScope> open;
  int depth = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) {
      continue;
    }
    if (t[i].text == "{") {
      bool is_record = false;
      // R4-style lookback (bounded by statement punctuation) for
      // `struct X ... {` / `class X ... {`. `enum class` is not a scope.
      for (size_t k = i; k-- > 0;) {
        const std::string& tx = t[k].text;
        if (tx == ";" || tx == "}" || tx == "{" || tx == ")") {
          break;
        }
        if ((IsIdent(t[k], "struct") || IsIdent(t[k], "class")) &&
            !(k > 0 && IsIdent(t[k - 1], "enum")) && k + 1 < t.size() &&
            t[k + 1].kind == TokKind::kIdent) {
          open.push_back(OpenScope{t[k + 1].text, depth, structs->size()});
          structs->push_back(StructSpan{t[k + 1].text, t[k + 1].line, i, t.size()});
          is_record = true;
          break;
        }
      }
      if (!is_record) {
        FnSpan fn;
        const std::string scope = open.empty() ? "" : open.back().name;
        if (DetectFunction(t, i, scope, &fn)) {
          fns->push_back(std::move(fn));
        }
      }
      ++depth;
    } else if (t[i].text == "}") {
      --depth;
      if (!open.empty() && open.back().depth == depth) {
        (*structs)[open.back().struct_idx].close = i;
        open.pop_back();
      }
    }
  }
}

// ------------------------------------------------------------- lambda spans

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

// Outermost lambda spans inside [first, last).
std::vector<LambdaSpan> CollectLambdas(const Toks& t, size_t first, size_t last) {
  std::vector<LambdaSpan> spans;
  for (size_t i = first; i < last && i < t.size();) {
    LambdaSpan span;
    if (LambdaAt(t, i, &span) && span.body_close < t.size()) {
      spans.push_back(span);
      i = span.body_close + 1;
    } else {
      ++i;
    }
  }
  return spans;
}

// ------------------------------------------------------------ effect stream
//
// The R6 effect alphabet. Deferred work (lambda bodies) is excluded: a retry
// closure's Send fires on a later scheduler tick, after the function's own
// Sync has long since returned.

void ExtractEffects(const Toks& t, const FnSpan& fn, std::vector<FactEffect>* out) {
  if (fn.close >= t.size()) {
    return;
  }
  std::vector<LambdaSpan> lambdas = CollectLambdas(t, fn.open + 1, fn.close);
  size_t li = 0;
  for (size_t i = fn.open + 1; i < fn.close; ++i) {
    if (li < lambdas.size() && i == lambdas[li].intro) {
      i = lambdas[li].body_close;
      ++li;
      continue;
    }
    if (t[i].kind != TokKind::kIdent || i + 1 >= t.size() || t[i + 1].text != "(") {
      continue;
    }
    const std::string& nm = t[i].text;
    FactEffect e;
    e.line = t[i].line;
    if (nm == "Sync") {
      e.kind = 'y';
    } else if (nm == "Sign") {
      e.kind = 'g';
    } else if (StartsWith(nm, "Send") || StartsWith(nm, "Broadcast")) {
      e.kind = 's';
    } else if (!IsMemberAccess(t, i) && (i == 0 || t[i - 1].text != "::") &&
               std::isupper(static_cast<unsigned char>(nm[0]))) {
      e.kind = 'c';  // Bare capitalized call: own-class method or free fn.
      e.arg = nm;
    } else {
      continue;
    }
    out->push_back(std::move(e));
  }
}

// ------------------------------------------------------------ registry facts

void ScanEnumerators(const Toks& t, std::vector<FactEnumerator>* out) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "enum")) {
      continue;
    }
    size_t j = i + 1;
    if (j < t.size() && (IsIdent(t[j], "class") || IsIdent(t[j], "struct"))) {
      ++j;
    }
    if (j >= t.size() || !IsIdent(t[j], "MessageTypeId")) {
      continue;
    }
    while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
      ++j;  // Skips the `: uint8_t` base clause.
    }
    if (j >= t.size() || t[j].text != "{") {
      continue;
    }
    size_t close = MatchForward(t, j, "{", "}");
    bool expecting = true;
    int depth = 0;
    for (size_t k = j + 1; k < close && k < t.size(); ++k) {
      if (t[k].kind == TokKind::kPunct) {
        const std::string& tx = t[k].text;
        if (tx == "(" || tx == "{" || tx == "<") {
          ++depth;
        } else if (tx == ")" || tx == "}" || tx == ">") {
          --depth;
        } else if (tx == "," && depth == 0) {
          expecting = true;
        }
        continue;
      }
      if (expecting && t[k].kind == TokKind::kIdent && depth == 0) {
        out->push_back(FactEnumerator{t[k].text, t[k].line});
        expecting = false;
      }
    }
    return;  // One MessageTypeId enum per repo.
  }
}

// `return MessageTypeId::kX;` — the TypeId() body of a registered message
// struct. (`case MessageTypeId::kX:` in the name table is preceded by `case`,
// not `return`, so it does not match.)
void ScanRegistrations(const Toks& t, const std::vector<FnSpan>& fns,
                       const std::vector<StructSpan>& structs,
                       std::vector<FactRegistration>* out) {
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!IsIdent(t[i], "return") || !IsIdent(t[i + 1], "MessageTypeId") ||
        t[i + 2].text != "::" || t[i + 3].kind != TokKind::kIdent) {
      continue;
    }
    std::string struct_name;
    size_t best = t.size();
    for (const StructSpan& s : structs) {
      if (s.open < i && i < s.close && s.close - s.open < best) {
        best = s.close - s.open;
        struct_name = s.name;
      }
    }
    if (struct_name.empty()) {
      // Out-of-line definition `MessageTypeId MsgX::TypeId() ...`.
      for (const FnSpan& fn : fns) {
        if (fn.open < i && i < fn.close && !fn.owner.empty()) {
          struct_name = fn.owner;
          break;
        }
      }
    }
    if (!struct_name.empty()) {
      out->push_back(FactRegistration{t[i + 3].text, struct_name, t[i + 3].line});
    }
  }
}

void ScanHandlerCasts(const Toks& t, std::vector<std::string>* out) {
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(IsIdent(t[i], "dynamic_pointer_cast") || IsIdent(t[i], "dynamic_cast")) ||
        t[i + 1].text != "<") {
      continue;
    }
    size_t j = i + 2;
    while (j < t.size() && IsIdent(t[j], "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent) {
      out->push_back(t[j].text);
    }
  }
}

// Capitalized type mentions inside a registered message struct's body; the
// model filters them against codec owners, so over-collection is harmless.
void ScanPayloadRefs(const Toks& t, const std::vector<StructSpan>& structs,
                     const std::vector<FactRegistration>& regs,
                     std::vector<FactPayloadRef>* out) {
  std::set<std::string> reg_structs;
  for (const FactRegistration& r : regs) {
    reg_structs.insert(r.struct_name);
  }
  for (const StructSpan& s : structs) {
    if (reg_structs.count(s.name) == 0 || s.close >= t.size()) {
      continue;
    }
    std::set<std::string> seen;
    for (size_t k = s.open + 1; k < s.close; ++k) {
      if (t[k].kind != TokKind::kIdent ||
          !std::isupper(static_cast<unsigned char>(t[k].text[0])) || t[k].text == s.name) {
        continue;
      }
      if (k + 1 < t.size() && (t[k + 1].text == "(" || t[k + 1].text == "::")) {
        continue;  // Constructor-style call / scope qualifier, not a field type.
      }
      if (IsMemberAccess(t, k) || (k > 0 && t[k - 1].text == "::")) {
        continue;
      }
      if (seen.insert(t[k].text).second) {
        out->push_back(FactPayloadRef{s.name, t[k].text});
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------- R8 deferred-capture
//
// One function's tokens suffice, so this runs in pass 1. Two legs:
//   (a) a lambda handed to a Schedule* call captures by reference — the
//       callback outlives this stack frame, so the reference dangles when the
//       scheduler fires it.
//   (b) a retry lambda reschedules its own enclosing function but passes a
//       literal constant where a sibling argument carries captured-by-value
//       state — every attempt re-runs with the same value (the PR 2
//       RetryBroadcast stale-attempt storm: backoff never grew because the
//       attempt counter was re-seeded to 0 on every hop).
// Re-reading *members* through a captured `this` is the repo's fixed design
// (the member is the source of truth, fresh at fire time) and stays silent.
std::vector<Finding> RunDeferredCapture(const std::string& rel_path, const LexedFile& lex) {
  (void)rel_path;  // Applies everywhere a Scheduler is in reach.
  const Toks& t = lex.tokens;
  std::vector<FnSpan> fns;
  std::vector<StructSpan> structs;
  ScanStructure(t, &fns, &structs);
  std::vector<Finding> out;
  for (const FnSpan& fn : fns) {
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
        out.push_back(std::move(f));
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
          out.push_back(std::move(f));
        }
        break;  // One reschedule per lambda is enough to judge.
      }
    }
  }
  return out;
}

// ----------------------------------------------------------- pass 1 assembly

FileFacts ExtractFacts(const std::string& path, const std::string& content,
                       const std::string* companion_content) {
  FileFacts facts;
  facts.path = path;
  facts.rel = RepoRelPath(path);
  LexedFile lex = Lex(content);
  LexedFile companion;
  if (companion_content != nullptr) {
    companion = Lex(*companion_content);
  }
  facts.findings = RunRules(facts.rel, lex, companion_content != nullptr ? &companion : nullptr);
  std::vector<Finding> deferred = RunDeferredCapture(facts.rel, lex);
  facts.findings.insert(facts.findings.end(), deferred.begin(), deferred.end());
  std::stable_sort(facts.findings.begin(), facts.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) {
                       return a.line < b.line;
                     }
                     return a.rule < b.rule;
                   });
  for (Finding& f : facts.findings) {
    f.path = path;
  }
  facts.allows = ParseAllows(lex.comments);

  const Toks& t = lex.tokens;
  std::vector<FnSpan> fns;
  std::vector<StructSpan> structs;
  ScanStructure(t, &fns, &structs);
  for (const FnSpan& fn : fns) {
    FactFunction ff;
    ff.owner = fn.owner;
    ff.name = fn.name;
    ff.line = fn.line;
    ExtractEffects(t, fn, &ff.effects);
    facts.functions.push_back(std::move(ff));
    if ((fn.name == "Encode" || fn.name == "Decode") && !fn.owner.empty()) {
      facts.codec_sides.push_back(FactCodecSide{fn.owner, fn.name == "Encode", fn.line});
    }
  }
  ScanEnumerators(t, &facts.enumerators);
  ScanRegistrations(t, fns, structs, &facts.registrations);
  ScanHandlerCasts(t, &facts.handler_casts);
  ScanPayloadRefs(t, structs, facts.registrations, &facts.payload_refs);
  return facts;
}

FileFacts ExtractFactsFromDisk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    FileFacts facts;
    facts.path = path;
    facts.rel = RepoRelPath(path);
    Finding f;
    f.rule = "io-error";
    f.path = path;
    f.line = 0;
    f.message = "cannot read file";
    facts.findings.push_back(std::move(f));
    return facts;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string companion_content;
  bool have_companion = false;
  std::filesystem::path p(path);
  if (p.extension() == ".cpp" || p.extension() == ".cc") {
    std::filesystem::path header = p;
    header.replace_extension(".h");
    std::ifstream hin(header, std::ios::binary);
    if (hin) {
      std::stringstream hbuf;
      hbuf << hin.rdbuf();
      companion_content = hbuf.str();
      have_companion = true;
    }
  }
  return ExtractFacts(path, buf.str(), have_companion ? &companion_content : nullptr);
}

// ------------------------------------------------------------ pass 2: rules

namespace {

// R6 scope: the four protocol directories where signing boundaries live.
bool InWalScope(const std::string& rel) {
  return StartsWith(rel, "src/narwhal/") || StartsWith(rel, "src/hotstuff/") ||
         StartsWith(rel, "src/tusk/") || StartsWith(rel, "src/bullshark/");
}

struct FnRef {
  const FactFunction* fn = nullptr;
  size_t file = 0;
};

using FnIndex = std::map<std::string, FnRef>;

const FnRef* LookupFn(const FnIndex& index, const std::string& owner, const std::string& name) {
  if (!owner.empty()) {
    auto it = index.find(owner + "::" + name);
    if (it != index.end()) {
      return &it->second;
    }
  }
  auto it = index.find("::" + name);
  return it != index.end() ? &it->second : nullptr;
}

struct EffRef {
  char kind = 0;
  int line = 0;
  size_t file = 0;
  int depth = 0;
};

// Flattens fn's effect sequence, inlining bare calls up to two levels deep.
// Two levels because the repo's idiom is Handler -> PersistX -> store Sync:
// one level would lose the Sync and flag every correct path.
void ExpandEffects(const FactFunction& fn, size_t file, int depth, const FnIndex& index,
                   std::set<std::string>* visited, std::vector<EffRef>* seq) {
  for (const FactEffect& e : fn.effects) {
    if (e.kind != 'c') {
      seq->push_back(EffRef{e.kind, e.line, file, depth});
      continue;
    }
    if (depth >= 2) {
      continue;
    }
    const FnRef* callee = LookupFn(index, fn.owner, e.arg);
    if (callee == nullptr) {
      continue;
    }
    std::string key = callee->fn->owner + "::" + callee->fn->name;
    if (!visited->insert(key).second) {
      continue;  // Recursion / diamond: already on this expansion path.
    }
    ExpandEffects(*callee->fn, callee->file, depth + 1, index, visited, seq);
    visited->erase(key);
  }
}

void RunWalBeforeSend(const std::vector<FileFacts>& files, std::vector<Finding>* out) {
  FnIndex index;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const FactFunction& fn : files[fi].functions) {
      index.emplace(fn.owner + "::" + fn.name, FnRef{&fn, fi});  // First def wins.
    }
  }
  std::set<std::pair<std::string, int>> reported;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    if (!InWalScope(files[fi].rel)) {
      continue;
    }
    for (const FactFunction& fn : files[fi].functions) {
      std::vector<EffRef> seq;
      std::set<std::string> visited;
      visited.insert(fn.owner + "::" + fn.name);
      ExpandEffects(fn, fi, 0, index, &visited, &seq);
      // The sign and the send must both sit in *this* function's own body
      // (depth 0). Pairing effects across inlined frames smears mutually
      // exclusive dispatch branches into one false sequence, and the depth
      // cutoff would drop a callee's persist helper and report the finding
      // at the callee's line from every two-deep caller. Inlining exists to
      // find the durability barrier ('y'), which legitimately lives inside
      // PersistX helpers — that one is counted at any depth.
      bool seen_sign = false;
      bool seen_sync = false;
      int sign_line = 0;
      for (const EffRef& e : seq) {
        if (e.kind == 'y') {
          seen_sync = true;
        } else if (e.kind == 'g' && e.depth == 0) {
          seen_sign = true;
          sign_line = e.line;
        } else if (e.kind == 's' && e.depth == 0 && seen_sign && !seen_sync) {
          if (reported.insert({files[e.file].path, e.line}).second) {
            Finding f;
            f.rule = kRuleWalBeforeSend;
            f.path = files[e.file].path;
            f.line = e.line;
            f.message =
                "signed message leaves the node with no Store::Sync() durability barrier on the "
                "path (signature at line " +
                std::to_string(sign_line) +
                "): a crash after the send but before the WAL hits disk lets the restarted "
                "validator sign a conflicting message (double-vote-through-amnesia); Sync() "
                "after the signing-boundary append, before Send/Broadcast";
            out->push_back(std::move(f));
          }
        }
      }
    }
  }
}

// Names every corpus mention of a decodable type: `DecodeGarbage<T>` or
// `T::Decode`.
std::set<std::string> CorpusMentions(const std::string& content) {
  std::set<std::string> names;
  Toks t = Lex(content).tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (IsIdent(t[i], "DecodeGarbage") && t[i + 1].text == "<" &&
        t[i + 2].kind == TokKind::kIdent) {
      names.insert(t[i + 2].text);
    }
    if (t[i].kind == TokKind::kIdent && t[i + 1].text == "::" && IsIdent(t[i + 2], "Decode")) {
      names.insert(t[i].text);
    }
  }
  return names;
}

void RunRegistryExhaustive(const std::vector<FileFacts>& files, const std::string* fuzz_corpus,
                           std::vector<Finding>* out) {
  bool any_enum = false;
  bool any_reg = false;
  bool any_cast = false;
  std::set<std::string> registered_enums;
  std::set<std::string> handler_set;
  for (const FileFacts& file : files) {
    any_enum = any_enum || !file.enumerators.empty();
    any_cast = any_cast || !file.handler_casts.empty();
    for (const FactRegistration& g : file.registrations) {
      any_reg = true;
      registered_enums.insert(g.enumerator);
    }
    for (const std::string& h : file.handler_casts) {
      handler_set.insert(h);
    }
  }
  // Subset lint (e.g. `ntlint src/net`) sees a partial registry; running the
  // legs there would report the whole message table as missing.
  if (!any_enum || !any_reg || !any_cast) {
    return;
  }
  // Leg 1: every enumerator has a registered struct.
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const FactEnumerator& e : files[fi].enumerators) {
      if (e.name == "kTest" || e.name == "kCount" || registered_enums.count(e.name) > 0) {
        continue;
      }
      Finding f;
      f.rule = kRuleRegistryExhaustive;
      f.path = files[fi].path;
      f.line = e.line;
      f.message = "MessageTypeId::" + e.name +
                  " has no message struct whose TypeId() returns it — frames carrying this id "
                  "decode to nothing and are dropped as garbage";
      out->push_back(std::move(f));
    }
  }
  // Leg 2: every registered struct has a dispatch cast.
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const FactRegistration& g : files[fi].registrations) {
      if (handler_set.count(g.struct_name) > 0) {
        continue;
      }
      Finding f;
      f.rule = kRuleRegistryExhaustive;
      f.path = files[fi].path;
      f.line = g.line;
      f.message = "message struct " + g.struct_name + " (MessageTypeId::" + g.enumerator +
                  ") is registered but never dispatched — no dynamic_pointer_cast<" +
                  g.struct_name + "> handler consumes it";
      out->push_back(std::move(f));
    }
  }
  // Legs 3 and 4: payload codecs referenced by registered messages.
  struct CodecInfo {
    int enc_line = 0;
    int dec_line = 0;
    size_t enc_file = 0;
    size_t dec_file = 0;
  };
  std::map<std::string, CodecInfo> codecs;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const FactCodecSide& c : files[fi].codec_sides) {
      CodecInfo& info = codecs[c.owner];
      if (c.encode && info.enc_line == 0) {
        info.enc_line = c.line;
        info.enc_file = fi;
      } else if (!c.encode && info.dec_line == 0) {
        info.dec_line = c.line;
        info.dec_file = fi;
      }
    }
  }
  std::set<std::string> corpus_names;
  if (fuzz_corpus != nullptr) {
    corpus_names = CorpusMentions(*fuzz_corpus);
  }
  std::set<std::string> seen_types;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const FactPayloadRef& ref : files[fi].payload_refs) {
      if (!seen_types.insert(ref.type_name).second) {
        continue;
      }
      auto it = codecs.find(ref.type_name);
      if (it == codecs.end()) {
        continue;  // Not a codec-owning type (plain field, alias, enum...).
      }
      const CodecInfo& info = it->second;
      if (info.enc_line == 0 || info.dec_line == 0) {
        const bool has_enc = info.enc_line != 0;
        Finding f;
        f.rule = kRuleRegistryExhaustive;
        f.path = files[has_enc ? info.enc_file : info.dec_file].path;
        f.line = has_enc ? info.enc_line : info.dec_line;
        f.message = ref.type_name + ": payload codec referenced by registered message " +
                    ref.struct_name + " has " +
                    (has_enc ? "Encode but no Decode — the receive path cannot reconstruct the "
                               "field"
                             : "Decode but no Encode — the send path cannot emit the field");
        out->push_back(std::move(f));
        continue;
      }
      if (fuzz_corpus != nullptr && corpus_names.count(ref.type_name) == 0) {
        Finding f;
        f.rule = kRuleRegistryExhaustive;
        f.path = files[info.dec_file].path;
        f.line = info.dec_line;
        f.message = ref.type_name + " (payload of " + ref.struct_name +
                    "): two-sided codec missing from the fuzz_decode_test corpus — add "
                    "DecodeGarbage<" +
                    ref.type_name + "> so garbage frames cannot crash the decoder";
        out->push_back(std::move(f));
      }
    }
  }
}

}  // namespace

std::vector<Finding> RunModelRules(const std::vector<FileFacts>& files,
                                   const std::string* fuzz_corpus) {
  std::vector<Finding> findings;
  RunWalBeforeSend(files, &findings);
  RunRegistryExhaustive(files, fuzz_corpus, &findings);
  return findings;
}

Summary AssembleSummary(std::vector<FileFacts> files, const std::string* fuzz_corpus) {
  Summary summary;
  std::vector<Finding> model = RunModelRules(files, fuzz_corpus);
  std::map<std::string, size_t> by_path;
  for (size_t i = 0; i < files.size(); ++i) {
    by_path.emplace(files[i].path, i);
  }
  for (Finding& f : model) {
    auto it = by_path.find(f.path);
    if (it != by_path.end()) {
      files[it->second].findings.push_back(std::move(f));
    }
  }
  for (FileFacts& file : files) {
    std::stable_sort(file.findings.begin(), file.findings.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) {
                         return a.line < b.line;
                       }
                       return a.rule < b.rule;
                     });
    FileReport report;
    report.path = file.path;
    ApplyAllows(&file.findings, &file.allows, &report);
    for (const Finding& f : file.findings) {
      ++summary.total;
      if (f.suppressed) {
        ++summary.suppressed;
      }
    }
    for (const AllowAnnotation& a : file.allows) {
      if (!a.used) {
        for (const std::string& rule : a.rules) {
          ++summary.stale_by_rule[rule];
        }
      }
    }
    report.findings = std::move(file.findings);
    if (!report.findings.empty() || !report.unused_allows.empty()) {
      summary.files.push_back(std::move(report));
    }
  }
  return summary;
}

Summary LintRepoUnits(const std::vector<SourceUnit>& units, const std::string* fuzz_corpus) {
  std::vector<const SourceUnit*> ordered;
  for (const SourceUnit& u : units) {
    ordered.push_back(&u);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SourceUnit* a, const SourceUnit* b) { return a->path < b->path; });
  std::vector<FileFacts> facts;
  for (const SourceUnit* u : ordered) {
    const std::string* companion = nullptr;
    std::filesystem::path p(u->path);
    if (p.extension() == ".cpp" || p.extension() == ".cc") {
      std::filesystem::path header = p;
      header.replace_extension(".h");
      for (const SourceUnit& other : units) {
        if (other.path == header.string()) {
          companion = &other.content;
          break;
        }
      }
    }
    facts.push_back(ExtractFacts(u->path, u->content, companion));
  }
  return AssembleSummary(std::move(facts), fuzz_corpus);
}

std::string LocateFuzzCorpus(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const std::string& p : paths) {
    fs::path base(p);
    if (fs::is_regular_file(base, ec)) {
      base = base.parent_path();
    }
    for (const fs::path& cand : {base / ".." / "tests" / "fuzz_decode_test.cpp",
                                 base / "tests" / "fuzz_decode_test.cpp"}) {
      if (fs::is_regular_file(cand, ec)) {
        return cand.lexically_normal().string();
      }
    }
  }
  return "";
}

Summary LintPathsWithCorpus(const std::vector<std::string>& paths,
                            const std::string& corpus_path) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::vector<std::string> collected = CollectSourceFiles(p);
    files.insert(files.end(), collected.begin(), collected.end());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::string corpus = corpus_path.empty() ? LocateFuzzCorpus(paths) : corpus_path;
  std::string corpus_content;
  bool have_corpus = false;
  if (!corpus.empty()) {
    std::ifstream in(corpus, std::ios::binary);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      corpus_content = buf.str();
      have_corpus = true;
    }
  }

  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  for (const std::string& f : files) {
    facts.push_back(ExtractFactsFromDisk(f));
  }
  return AssembleSummary(std::move(facts), have_corpus ? &corpus_content : nullptr);
}

}  // namespace lint
}  // namespace nt



