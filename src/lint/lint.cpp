#include "src/lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/lint/lexer.h"
#include "src/lint/rules.h"

namespace nt {
namespace lint {
namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool IsSourceFile(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

// JSON string escaping for the SARIF emitter.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules = {
      {kRuleNondet, "R1",
       "Wall-clock, entropy, threading or raw-file-IO source outside src/sim/ and bench/; a "
       "std::unordered_* or a std::map/set keyed by raw pointer anywhere"},
      {kRuleQuorumArith, "R3", "Literal quorum-threshold arithmetic outside the Committee helpers"},
      {kRuleCodecMismatch, "R4", "Encode/Decode field op sequences drift"},
      {kRuleDeferredCapture, "R8",
       "Scheduler lambda captures by reference or reschedules with stale state"},
  };
  return rules;
}

namespace {

// One `ntlint:allow(...)` annotation, parsed from a comment.
struct AllowAnnotation {
  int line = 0;
  std::vector<std::string> rules;
  std::string reason;
  bool used = false;
};

// Extracts `ntlint:allow(rule[,rule...]): reason` annotations from comments.
// Unknown rule names are dropped (a typo'd rule leaves the finding live).
std::vector<AllowAnnotation> ParseAllows(const std::vector<Comment>& comments) {
  std::vector<AllowAnnotation> allows;
  for (const Comment& c : comments) {
    size_t pos = c.text.find("ntlint:allow(");
    if (pos == std::string::npos) {
      continue;
    }
    size_t open = pos + std::string("ntlint:allow").size();
    size_t close = c.text.find(')', open);
    if (close == std::string::npos) {
      continue;
    }
    AllowAnnotation a;
    a.line = c.line;
    // Only known rule names count: documentation that merely quotes the
    // annotation syntax (e.g. "ntlint:allow(<rule>)") must not parse as a
    // live suppression, and a typo'd rule leaves the finding unsuppressed —
    // which surfaces the typo.
    std::stringstream rules(c.text.substr(open + 1, close - open - 1));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      rule = Trim(rule);
      for (const RuleInfo& known : Rules()) {
        if (rule == known.id) {
          a.rules.push_back(rule);
          break;
        }
      }
    }
    size_t colon = c.text.find(':', close);
    if (colon != std::string::npos) {
      a.reason = Trim(c.text.substr(colon + 1));
    }
    if (!a.rules.empty()) {
      allows.push_back(std::move(a));
    }
  }
  return allows;
}

// Repo-relative path ("src/..." or "bench/...") so rule scoping works no
// matter where the tool is invoked from.
std::string RepoRelPath(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  for (const char* anchor : {"/src/", "/bench/"}) {
    size_t pos = path.rfind(anchor);
    if (pos != std::string::npos) {
      return path.substr(pos + 1);
    }
  }
  return path;
}

// Applies allow annotations to `findings` (marks suppressed / used) and
// records the stale ones on the report.
void ApplyAllows(std::vector<Finding>* findings, std::vector<AllowAnnotation>* allows,
                 FileReport* report) {
  for (Finding& f : *findings) {
    for (AllowAnnotation& a : *allows) {
      // An annotation covers its own line (trailing comment) and the line
      // directly below it (annotation-above style).
      if (a.line != f.line && a.line + 1 != f.line) {
        continue;
      }
      if (std::find(a.rules.begin(), a.rules.end(), f.rule) == a.rules.end()) {
        continue;
      }
      f.suppressed = true;
      f.allow_reason = a.reason;
      a.used = true;
      break;
    }
  }
  for (const AllowAnnotation& a : *allows) {
    if (!a.used) {
      std::string rules;
      for (const std::string& r : a.rules) {
        rules += (rules.empty() ? "" : ",") + r;
      }
      report->unused_allows.emplace_back(a.line, rules);
    }
  }
}

// Recursively collects the source files under `root` (or `root` itself if it
// is a regular file), sorted lexicographically so runs are reproducible.
std::vector<std::string> CollectSourceFiles(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    files.push_back(root);
    return files;
  }
  if (!fs::is_directory(root, ec)) {
    return files;
  }
  fs::recursive_directory_iterator it(root, fs::directory_options::skip_permission_denied, ec);
  fs::recursive_directory_iterator end;
  for (; it != end; it.increment(ec)) {
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory(ec)) {
      if (!name.empty() && (name[0] == '.' || name.rfind("build", 0) == 0)) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file(ec) && IsSourceFile(p)) {
      files.push_back(p.string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

FileReport LintSource(const std::string& path, const std::string& content) {
  LexedFile lex = Lex(content);
  FileReport report;
  report.path = path;
  report.findings = RunRules(RepoRelPath(path), lex);
  for (Finding& f : report.findings) {
    f.path = path;
  }
  std::vector<AllowAnnotation> allows = ParseAllows(lex.comments);
  ApplyAllows(&report.findings, &allows, &report);
  return report;
}

void AddReport(Summary* summary, FileReport report) {
  for (const Finding& f : report.findings) {
    ++summary->total;
    if (f.suppressed) {
      ++summary->suppressed;
    }
  }
  for (const auto& [line, rules] : report.unused_allows) {
    std::stringstream list(rules);
    std::string rule;
    while (std::getline(list, rule, ',')) {
      ++summary->stale_by_rule[rule];
    }
  }
  if (!report.findings.empty() || !report.unused_allows.empty()) {
    summary->files.push_back(std::move(report));
  }
}

Summary LintPaths(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::vector<std::string> collected = CollectSourceFiles(p);
    files.insert(files.end(), collected.begin(), collected.end());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Summary summary;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      Finding f;
      f.rule = "io-error";
      f.path = path;
      f.message = "cannot read file";
      FileReport report;
      report.path = path;
      report.findings.push_back(std::move(f));
      AddReport(&summary, std::move(report));
      continue;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    AddReport(&summary, LintSource(path, buf.str()));
  }
  return summary;
}

std::string FormatSummary(const Summary& summary, bool verbose) {
  std::ostringstream out;
  for (const FileReport& file : summary.files) {
    for (const Finding& f : file.findings) {
      if (f.suppressed && !verbose) {
        continue;
      }
      out << f.path << ":" << f.line << ": [" << f.rule << "] "
          << (f.suppressed ? "(suppressed) " : "") << f.message << "\n";
    }
  }
  // The suppression budget is always visible: every allow annotation in
  // effect is listed so exceptions cannot accumulate silently.
  if (summary.suppressed > 0) {
    out << "\nsuppressed findings (" << summary.suppressed << "):\n";
    for (const FileReport& file : summary.files) {
      for (const Finding& f : file.findings) {
        if (f.suppressed) {
          out << "  " << f.path << ":" << f.line << " [" << f.rule << "] "
              << (f.allow_reason.empty() ? "(no reason given)" : f.allow_reason) << "\n";
        }
      }
    }
  }
  bool header_printed = false;
  for (const FileReport& file : summary.files) {
    for (const auto& [line, rules] : file.unused_allows) {
      if (!header_printed) {
        out << "\nstale allow annotations (matched no finding):\n";
        header_printed = true;
      }
      out << "  " << file.path << ":" << line << " [" << rules << "]\n";
    }
  }
  if (header_printed) {
    out << "  stale by rule:";
    for (const auto& [rule, count] : summary.stale_by_rule) {
      out << " " << rule << "=" << count;
    }
    out << "\n";
  }
  out << "\nntlint: " << summary.total << " finding(s), " << summary.suppressed
      << " suppressed, " << summary.unsuppressed() << " unsuppressed\n";
  return out.str();
}

std::string FormatSarif(const Summary& summary) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out << "  \"version\": \"2.1.0\",\n";
  out << "  \"runs\": [\n    {\n";
  out << "      \"tool\": {\n        \"driver\": {\n";
  out << "          \"name\": \"ntlint\",\n";
  out << "          \"informationUri\": \"https://example.invalid/ntlint\",\n";
  out << "          \"rules\": [\n";
  const std::vector<RuleInfo>& rules = Rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << "            {\"id\": \"" << rules[i].id << "\", \"name\": \"" << rules[i].number
        << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(rules[i].description)
        << "\"}}" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n        }\n      },\n";
  out << "      \"results\": [";
  bool first = true;
  for (const FileReport& file : summary.files) {
    for (const Finding& f : file.findings) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "        {\n";
      out << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n";
      out << "          \"level\": \"" << (f.suppressed ? "note" : "error")
          << "\",\n";
      out << "          \"message\": {\"text\": \"" << JsonEscape(f.message) << "\"},\n";
      out << "          \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
          << "{\"uri\": \"" << JsonEscape(RepoRelPath(f.path)) << "\"}, \"region\": "
          << "{\"startLine\": " << std::max(1, f.line) << "}}}]";
      if (f.suppressed) {
        out << ",\n          \"suppressions\": [{\"kind\": \"inSource\", \"justification\": \""
            << JsonEscape(f.allow_reason.empty() ? "(no reason given)" : f.allow_reason)
            << "\"}]";
      }
      out << "\n        }";
    }
  }
  out << (first ? "]\n" : "\n      ]\n");
  out << "    }\n  ]\n}\n";
  return out.str();
}

}  // namespace lint
}  // namespace nt
