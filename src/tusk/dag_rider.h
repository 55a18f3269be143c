// DAG-Rider [28] implemented over the same Narwhal DAG API, substantiating
// the paper's §8.2 remark that "it would take less than 200 LOC to implement
// DAG-Rider over Narwhal".
//
// Differences from Tusk (paper §5): waves span 4 rounds with no
// piggybacking; the wave leader lives in the wave's first round; the commit
// rule requires 2f+1 fourth-round blocks with a *path* to the leader
// (instead of f+1 second-round blocks with a direct reference). Expected
// common-case commit latency is therefore 5.5 rounds vs Tusk's 4.5 — the
// gap the ablation benchmark measures.
#ifndef SRC_TUSK_DAG_RIDER_H_
#define SRC_TUSK_DAG_RIDER_H_

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/crypto/coin.h"
#include "src/narwhal/primary.h"

namespace nt {

class DagRider {
 public:
  struct Committed {
    Digest digest{};
    std::shared_ptr<const BlockHeader> header;
    uint64_t wave = 0;
  };

  DagRider(Primary* primary, const Committee& committee, const ThresholdCoin* coin);

  // Registers a delivery callback; multiple listeners may register.
  void add_on_commit(std::function<void(const Committed&)> hook) {
    on_commit_hooks_.push_back(std::move(hook));
  }

  uint64_t last_committed_wave() const { return last_committed_wave_; }
  uint64_t committed_headers() const { return committed_count_; }

  // Wave w (w >= 1) occupies rounds 4w-3 .. 4w.
  static Round WaveFirstRound(uint64_t wave) { return 4 * wave - 3; }
  static Round WaveLastRound(uint64_t wave) { return 4 * wave; }

 private:
  const Certificate* LeaderCert(uint64_t wave) const;
  bool CommitRuleSatisfied(uint64_t wave, const Certificate& leader) const;
  bool CommitChain(uint64_t wave, const Certificate& leader);
  void TryCommit();

  Primary* primary_;
  const Committee& committee_;
  const ThresholdCoin* coin_;

  uint64_t last_committed_wave_ = 0;
  std::set<Digest, DigestLess> committed_;
  uint64_t committed_count_ = 0;
  std::vector<std::function<void(const Committed&)>> on_commit_hooks_;
};

}  // namespace nt

#endif  // SRC_TUSK_DAG_RIDER_H_
