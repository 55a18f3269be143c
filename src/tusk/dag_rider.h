// DAG-Rider [28] implemented over the same Narwhal DAG API, substantiating
// the paper's §8.2 remark that "it would take less than 200 LOC to implement
// DAG-Rider over Narwhal": the rule below is all DAG-Rider adds to the
// shared DagCommitter.
//
// Differences from Tusk (paper §5): waves span 4 rounds with no
// piggybacking; the wave leader lives in the wave's first round; the commit
// rule requires 2f+1 fourth-round blocks with a *path* to the leader
// (instead of f+1 second-round blocks with a direct reference). Expected
// common-case commit latency is therefore 5.5 rounds vs Tusk's 4.5 — the
// gap the ablation benchmark measures.
#ifndef SRC_TUSK_DAG_RIDER_H_
#define SRC_TUSK_DAG_RIDER_H_

#include "src/crypto/coin.h"
#include "src/tusk/dag_committer.h"

namespace nt {

class DagRider : public DagCommitter {
 public:
  DagRider(Primary* primary, const Committee& committee, const ThresholdCoin* coin);

  // Wave w (w >= 1) occupies rounds 4w-3 .. 4w.
  static Round WaveFirstRound(uint64_t wave) { return 4 * wave - 3; }
  static Round WaveLastRound(uint64_t wave) { return 4 * wave; }

  Round LeaderRound(uint64_t wave) const override { return WaveFirstRound(wave); }
  Round DecisionRound(uint64_t wave) const override { return WaveLastRound(wave); }

 protected:
  ValidatorId LeaderOf(uint64_t wave) const override;
  bool Supported(uint64_t wave, const Certificate& leader) const override;
  bool WaveReady(uint64_t wave) const override { return HasQuorumAt(DecisionRound(wave)); }
  // Faithful DAG-Rider retains all history (weak links make GC impossible —
  // paper §8.2), so the GC round never advances.
  bool CollectsGarbage() const override { return false; }

 private:
  const ThresholdCoin* coin_;
};

}  // namespace nt

#endif  // SRC_TUSK_DAG_RIDER_H_
