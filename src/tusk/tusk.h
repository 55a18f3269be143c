// Tusk (paper §5): zero-message-overhead asynchronous consensus over the
// local Narwhal DAG.
//
// The DAG is divided into waves of 3 rounds, with the third round of wave w
// piggybacked as the first round of wave w+1 — so wave w occupies rounds
// (2w-1, 2w, 2w+1). When the third round completes locally, the shared coin
// reveals the wave's leader L; the leader block is L's certificate at round
// 2w-1. It commits if at least f+1 certified round-2w blocks reference it.
// Committed leaders are chained backwards through skipped waves by DAG-path
// reachability (Lemma 1 guarantees agreement), and each leader's causal
// history is linearized by the deterministic rule shared with Narwhal-HS;
// both live in DagCommitter, which Tusk parameterizes with its wave rule.
#ifndef SRC_TUSK_TUSK_H_
#define SRC_TUSK_TUSK_H_

#include "src/crypto/coin.h"
#include "src/tusk/dag_committer.h"

namespace nt {

class Tusk : public DagCommitter {
 public:
  Tusk(Primary* primary, const Committee& committee, const ThresholdCoin* coin, Round gc_depth);

  // First round of wave w (w >= 1), with third-round piggybacking.
  static Round WaveFirstRound(uint64_t wave) { return 2 * wave - 1; }
  static Round WaveSecondRound(uint64_t wave) { return 2 * wave; }
  static Round WaveThirdRound(uint64_t wave) { return 2 * wave + 1; }

  Round LeaderRound(uint64_t wave) const override { return WaveFirstRound(wave); }
  // The coin is revealed, and the wave decided, at the third round.
  Round DecisionRound(uint64_t wave) const override { return WaveThirdRound(wave); }

 protected:
  ValidatorId LeaderOf(uint64_t wave) const override;
  bool Supported(uint64_t wave, const Certificate& leader) const override;
  // The coin for wave w is revealed once the third round is populated by a
  // quorum in the local view.
  bool WaveReady(uint64_t wave) const override { return HasQuorumAt(DecisionRound(wave)); }

 private:
  const ThresholdCoin* coin_;
};

}  // namespace nt

#endif  // SRC_TUSK_TUSK_H_
