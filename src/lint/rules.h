// Rule implementations for ntlint: R1 nondet, R3 quorum-arith, R4
// codec-mismatch and R8 deferred-capture (lint.h describes each and a src/
// site it guards). Split from the driver, which handles files and allow
// annotations.
#ifndef SRC_LINT_RULES_H_
#define SRC_LINT_RULES_H_

#include <string>
#include <vector>

#include "src/lint/lexer.h"
#include "src/lint/lint.h"

namespace nt {
namespace lint {

// Runs every rule applicable to `rel_path` (a repo-relative path like
// "src/narwhal/primary.cpp") over the lexed file. Findings come back
// unsuppressed and sorted by (line, rule); the driver applies annotations.
std::vector<Finding> RunRules(const std::string& rel_path, const LexedFile& lex);

}  // namespace lint
}  // namespace nt

#endif  // SRC_LINT_RULES_H_
