// Test-only protocol weakenings ("seeded bugs") used to mutation-test the
// deterministic simulation harness (src/check/): each enumerator re-introduces
// a classic DAG-BFT bug behind one global set that defaults to empty.
// Production code consults the set only at the one check each bug weakens,
// so with no bug active the protocol paths are byte-for-byte the honest ones.
//
// The harness's acceptance gate (tests/check_test.cpp, `ntcheck --bug ...`)
// asserts that enabling any bug makes an invariant violation surface within
// a bounded number of fuzzed schedules — proving the checker can actually
// catch the class of bug the paper's safety argument rules out. Each bug's
// name, pins and invariants are its row of kSeededBugRows (src/check/schedule.h).
#ifndef SRC_COMMON_SEEDED_BUGS_H_
#define SRC_COMMON_SEEDED_BUGS_H_

#include <cstdint>

namespace nt {

enum class SeededBug : uint8_t {
  // Certificates of availability are accepted (and formed) with only 2f
  // distinct signatures instead of 2f+1 — breaks quorum intersection, so an
  // equivocating author can certify two conflicting headers for one round
  // (violates invariant: at most one certificate per (round, author)).
  kAccept2fCerts,
  // Tusk's commit rule skips the f+1 second-round support check and commits
  // every elected leader present in the local DAG — breaks commit agreement
  // (validators with different views commit different leader chains).
  kSkipTuskSupport,
  // Bullshark's commit rule accepts f round-2w support votes instead of f+1 —
  // one vote short of quorum intersection, so an anchor can commit at one
  // validator while remaining forever invisible (neither direct-committed nor
  // path-ordered) at others: committed sequences fork (violates commit-prefix
  // consistency / agreement with the ReplayCommits reference replay).
  kSkipBullsharkSupport,
  // The sharded executor skips phase 1 of the cross-shard two-phase apply
  // (the funds check + debit at the source lane) and goes straight to the
  // credit — the classic lost-lock bug in deterministic cross-shard commit.
  // Every cross-shard transfer then creates tokens out of thin air (violates
  // conservation-of-balance) and the lanes' state digests diverge from the
  // honest ReplayShards oracle.
  kSkipCrossShardLock,
};

// A set of seeded bugs, one bit per enumerator.
class SeededBugSet {
 public:
  bool contains(SeededBug bug) const { return (bits_ >> static_cast<uint32_t>(bug)) & 1u; }
  void insert(SeededBug bug) { bits_ |= 1u << static_cast<uint32_t>(bug); }
  bool empty() const { return bits_ == 0; }

 private:
  uint32_t bits_ = 0;
};

namespace seeded_bugs {

// The bugs active in this process; empty outside a Scoped guard.
inline SeededBugSet active;

inline bool On(SeededBug bug) { return active.contains(bug); }

// RAII guard: installs `bugs` as the active set, restores the previous set
// on exit.
class Scoped {
 public:
  explicit Scoped(SeededBugSet bugs) : saved_(active) { active = bugs; }
  ~Scoped() { active = saved_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SeededBugSet saved_;
};

}  // namespace seeded_bugs
}  // namespace nt

#endif  // SRC_COMMON_SEEDED_BUGS_H_
