// Pure reference re-runs of the DAG commit rules (Tusk, paper §5; DAG-Rider,
// §8.2; Bullshark, arXiv:2201.05677) and of sharded execution — the oracles
// the DST harness and the differential suites compare every live
// validator's output against (invariant: live output is a prefix of the
// reference output). Unlike the live committers they have no network, no
// deferral, no sync: they assume their input already holds the union of
// everything any validator observed, and interpret waves strictly in order,
// mirroring the live garbage-collection horizon as they go. They never
// consult seeded_bugs, so a weakened live path diverges from them.
#ifndef SRC_CHECK_ORACLE_H_
#define SRC_CHECK_ORACLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/bullshark/bullshark.h"
#include "src/crypto/coin.h"
#include "src/narwhal/dag.h"
#include "src/runtime/cluster.h"
#include "src/types/committee.h"
#include "src/types/types.h"

namespace nt {

struct CommitReplay {
  // Committed header digests in delivery order.
  std::vector<Digest> ordered;
  // True if every committed leader's causal history was fully present in the
  // input DAG (always the case for a correctly accumulated union DAG; false
  // indicates the harness itself under-observed, not a protocol bug). The
  // replay stops at the first such leader and orders nothing from it on.
  bool complete = true;
};

// Replays the commit rule of `system` — kTusk, kBullshark or kDagRider, the
// systems with a DAG committer — over `dag` (taken by value: the replay
// garbage-collects as it commits, mirroring the live protocol's horizon).
// The coin elects Tusk's and DAG-Rider's leaders; `bullshark` parameterizes
// Bullshark's anchor schedule. Both, and gc_depth, must match the live
// run's (DAG-Rider keeps all history and ignores gc_depth).
CommitReplay ReplayCommits(Dag dag, SystemKind system, const Committee& committee,
                           const ThresholdCoin& coin, Round gc_depth,
                           const BullsharkConfig& bullshark = {});

struct ShardReplay {
  // Per executed header, every lane's state digest after the header's
  // commit boundary — the reference the live ShardedExecutor sequences are
  // compared against (prefix relation, like the commit replay above).
  std::vector<std::vector<Digest>> lanes_after;
  // Conservation accounting at the end of the replay.
  uint64_t minted = 0;
  uint64_t total_balance = 0;
  // False if some referenced batch could not be resolved anywhere — the
  // replay stops at that header (the harness under-observed; not a bug).
  bool complete = true;
};

// Pure replay of the sharded execution semantics (src/shard/) over the
// globally committed header sequence: lane routing, the single-shard fast
// path, and the honest two-phase cross-shard apply at each commit boundary.
// Independent re-implementation — it never consults seeded_bugs, so a
// weakened live executor diverges from it. `resolve` maps a batch reference
// to its content (typically a union over every validator's worker store).
ShardReplay ReplayShards(
    const std::vector<std::shared_ptr<const BlockHeader>>& ordered, uint32_t num_lanes,
    const std::function<std::shared_ptr<const Batch>(const BatchRef&)>& resolve);

}  // namespace nt

#endif  // SRC_CHECK_ORACLE_H_
