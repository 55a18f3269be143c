// The DST checker: runs the full stack (Narwhal+Tusk or Narwhal-HotStuff)
// under one FaultSchedule on the deterministic simulator and evaluates the
// global invariants the paper's correctness argument rests on, after every
// commit:
//
//   1. prefix-consistency — all correct validators' committed header
//      sequences are prefixes of one another (§3.2/§5 total order);
//   2. certificate uniqueness — at most one certificate per (round, author)
//      is ever accepted anywhere (§4.3 quorum-intersection);
//   3. causal completeness — every committed certificate's causal history is
//      fully available locally at commit time (§4 availability);
//   4. oracle agreement — each validator's Tusk commit output is a prefix of
//      a pure reference replay over the union DAG (§5 commit rule);
//   5. execution agreement — per-lane executor state digests agree across
//      validators at equal sequence numbers (§8.4);
//   6. liveness — commits resume within a bounded window after GST;
//   7. restart consistency — a recovered validator neither double-signs nor
//      re-delivers commits across the crash;
//   8. shard state — with sharded execution lanes (schedule.shards > 1, and
//      degenerately with one): token supply is conserved across lanes at
//      every commit boundary, and every live executor's lane-digest sequence
//      is a prefix of the pure ReplayShards oracle's.
//
// A run is deterministic: same schedule, same event-stream hash, same
// per-shard state hash, same verdict. Violations carry human-readable detail
// for the shrinker/CLI.
#ifndef SRC_CHECK_CHECKER_H_
#define SRC_CHECK_CHECKER_H_

#include <string>
#include <vector>

#include "src/check/schedule.h"
#include "src/common/time.h"

namespace nt {

// Liveness slack: every correct validator commits within this long of the
// run's end (>= 10 s past GST). Degraded-mode schedules (exactly 2f+1 alive,
// plus loss) get the stressed slack: each lost message costs a full retry
// delay (src/sim/timers.h), and the coin can pick dead leaders in a row.
inline constexpr TimeDelta kLivenessSlack = Seconds(6);
inline constexpr TimeDelta kStressedLivenessSlack = Seconds(15);

struct Violation {
  // Invariant identifier: "prefix-consistency", "cert-uniqueness",
  // "causal-completeness", "oracle-agreement", "exec-agreement", "liveness",
  // "restart-consistency", "shard-conservation", "shard-oracle".
  std::string invariant;
  std::string detail;
};

struct CheckResult {
  std::vector<Violation> violations;
  // Determinism fingerprint of the run (Scheduler::event_hash at the end).
  uint64_t event_hash = 0;
  uint64_t events_fired = 0;
  // Fold of the globally agreed per-header lane-digest sequence; the
  // determinism audit requires it to match across identical runs (identical
  // event hash alone would not notice divergent execution state).
  uint64_t shard_state_hash = 0;
  // Commits observed at validator 0 (progress indicator).
  uint64_t commits = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

// Runs one schedule to completion and evaluates all invariants.
CheckResult RunSchedule(const FaultSchedule& schedule);

// Runs `schedule` twice and adds a "determinism" violation if the two runs'
// event-stream hashes (or verdicts) differ.
CheckResult RunScheduleWithDeterminismCheck(const FaultSchedule& schedule);

}  // namespace nt

#endif  // SRC_CHECK_CHECKER_H_
