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
// history is linearized by the deterministic rule shared with Narwhal-HS.
#ifndef SRC_TUSK_TUSK_H_
#define SRC_TUSK_TUSK_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/crypto/coin.h"
#include "src/narwhal/primary.h"

namespace nt {

class Tusk {
 public:
  struct Committed {
    Digest digest{};
    std::shared_ptr<const BlockHeader> header;
    // The wave and leader round that anchored this commit.
    uint64_t wave = 0;
    Round leader_round = 0;
  };

  Tusk(Primary* primary, const Committee& committee, const ThresholdCoin* coin, Round gc_depth);

  // Registers a delivery callback: fired once per committed header, in total
  // order. Multiple listeners may register (metrics, applications, tests).
  void add_on_commit(std::function<void(const Committed&)> hook) {
    on_commit_hooks_.push_back(std::move(hook));
  }

  // Attaches the durable consensus store (non-owning; null = ephemeral).
  // Commit records are write-ahead persisted so a recovered validator never
  // re-delivers a header it committed pre-crash.
  void set_store(Store* store) { store_ = store; }

  // Restores the committed set and wave cursor from the store. Call after
  // the primary's own Recover() (GC filtering reads its horizon) and before
  // hooks fire; recovery itself delivers nothing. Re-notifies the primary
  // of committed headers still in the DAG so batch re-injection bookkeeping
  // survives the crash too.
  void Recover();

  // Re-evaluates the commit rule over the recovered DAG (post-rejoin
  // counterpart of the certificate hooks, which only fire on new arrivals).
  void Resume() { TryCommit(); }

  // Wire these to the primary's hooks (done by Tusk's constructor).
  void OnCertificate(const Certificate& cert);
  void OnHeaderStored(const Digest& digest);

  // Attaches the cluster's tracer (counters only; per-header commit stamps
  // come from Primary::NotifyCommitted).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t last_committed_wave() const { return last_committed_wave_; }
  uint64_t committed_headers() const { return committed_count_; }
  uint64_t skipped_leaders() const { return skipped_leaders_; }

  // First round of wave w (w >= 1), with third-round piggybacking.
  static Round WaveFirstRound(uint64_t wave) { return 2 * wave - 1; }
  static Round WaveSecondRound(uint64_t wave) { return 2 * wave; }
  static Round WaveThirdRound(uint64_t wave) { return 2 * wave + 1; }

 private:
  bool WaveComplete(uint64_t wave) const;
  const Certificate* LeaderCert(uint64_t wave) const;
  bool CommitRuleSatisfied(uint64_t wave, const Certificate& leader) const;
  // Commits the leader chain ending at wave `wave`. Returns false if the
  // commit had to be deferred on missing headers (sync requested).
  bool CommitChain(uint64_t wave, const Certificate& leader);
  void TryCommit();
  void PruneCommitted(Round gc_round);
  void PersistCommit(const Digest& digest, Round round);
  void PersistMeta();

  Primary* primary_;
  const Committee& committee_;
  const ThresholdCoin* coin_;
  Round gc_depth_;
  Tracer* tracer_ = nullptr;

  Store* store_ = nullptr;
  uint64_t last_committed_wave_ = 0;
  std::set<Digest, DigestLess> committed_;
  std::map<Round, std::vector<Digest>> committed_by_round_;
  uint64_t committed_count_ = 0;
  uint64_t skipped_leaders_ = 0;
  uint64_t last_skip_counted_ = 0;

  std::vector<std::function<void(const Committed&)>> on_commit_hooks_;
};

}  // namespace nt

#endif  // SRC_TUSK_TUSK_H_
