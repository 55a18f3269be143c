// Test-only protocol weakenings ("seeded bugs") used to mutation-test the
// deterministic simulation harness (src/check/): each flag re-introduces a
// classic DAG-BFT bug behind a global switch that defaults to off. Production
// code consults the flags only at the exact check being weakened, so with all
// flags false the protocol paths are byte-for-byte the honest ones.
//
// The harness's acceptance gate (tests/check_test.cpp, `ntcheck --bug ...`)
// asserts that enabling any flag makes an invariant violation surface within
// a bounded number of fuzzed schedules — proving the checker can actually
// catch the class of bug the paper's safety argument rules out.
#ifndef SRC_COMMON_SEEDED_BUGS_H_
#define SRC_COMMON_SEEDED_BUGS_H_

namespace nt {
namespace seeded_bugs {

// Certificates of availability are accepted (and formed) with only 2f
// distinct signatures instead of 2f+1 — breaks quorum intersection, so an
// equivocating author can certify two conflicting headers for one round
// (violates invariant: at most one certificate per (round, author)).
extern bool accept_2f_certs;

// Tusk's commit rule skips the f+1 second-round support check and commits
// every elected leader present in the local DAG — breaks commit agreement
// (validators with different views commit different leader chains).
extern bool skip_tusk_support;

// Bullshark's commit rule accepts f round-2w support votes instead of f+1 —
// one vote short of quorum intersection, so an anchor can commit at one
// validator while remaining forever invisible (neither direct-committed nor
// path-ordered) at others: committed sequences fork (violates commit-prefix
// consistency / agreement with ReplayBullshark).
extern bool skip_bullshark_support;

// The sharded executor skips phase 1 of the cross-shard two-phase apply (the
// funds check + debit at the source lane) and goes straight to the credit —
// the classic lost-lock bug in deterministic cross-shard commit. Every
// cross-shard transfer then creates tokens out of thin air (violates
// conservation-of-balance) and the lanes' state digests diverge from the
// honest ReplayShards oracle.
extern bool skip_cross_shard_lock;

// RAII guard for tests: sets a flag, restores the previous value on exit.
class Scoped {
 public:
  Scoped(bool* flag, bool value) : flag_(flag), saved_(*flag) { *flag = value; }
  ~Scoped() { *flag_ = saved_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  bool* flag_;
  bool saved_;
};

}  // namespace seeded_bugs
}  // namespace nt

#endif  // SRC_COMMON_SEEDED_BUGS_H_
