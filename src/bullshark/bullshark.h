// Bullshark (arXiv:2201.05677, partially-synchronous variant): a 2-round
// commit rule interpreting the same local Narwhal DAG as Tusk, with zero
// extra messages.
//
// The DAG is divided into waves of 2 rounds: wave w owns rounds (2w-1, 2w).
// The wave's anchor is a fixed, deterministically scheduled author's
// certificate at round 2w-1 (round-robin by default — no common coin, which
// is what makes the rule partially synchronous rather than asynchronous).
// The anchor commits as soon as f+1 certified round-2w blocks reference it
// as a parent: by quorum intersection, every certificate at round >= 2w+1
// then has a DAG path to the anchor, so validators that skip the wave
// locally will order the anchor later through the backward anchor-chain
// walk (identical to Tusk's Lemma 1 argument, one round earlier).
//
// Compared to Tusk, the decision round for wave w is 2w (the support round)
// instead of 2w+1 (the coin-reveal round), and anchors recur every 2 rounds
// instead of every 3 — strictly lower commit latency in the fault-free case,
// at the price of losing liveness under full asynchrony.
//
// Shoal-style leader reputation (arXiv:2306.03058) is available behind
// `BullsharkConfig::reputation`: authors whose most recent settled anchor
// was skipped are passed over in the round-robin schedule for a window of
// waves. The schedule is a pure fold over the settled wave-outcome sequence
// (updated only when the committed-wave cursor advances, with the pre-event
// state used for all author lookups inside one commit event), so a replay
// over the same outcome sequence — e.g. the ReplayBullshark oracle — derives
// the identical schedule. Caveat: under extreme fault mixes, validators can
// settle outcomes at different event granularities and transiently disagree
// on far-future anchor authors; the flag therefore defaults to off and the
// DST corpus runs with it off.
#ifndef SRC_BULLSHARK_BULLSHARK_H_
#define SRC_BULLSHARK_BULLSHARK_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/narwhal/primary.h"

namespace nt {

struct BullsharkConfig {
  // Shoal-style anchor-author reputation (see file comment). Default off.
  bool reputation = false;
  // A skipped anchor disfavors its author for this many settled waves.
  uint64_t reputation_window = 8;
};

// One settled wave outcome (for WAL snapshot/restore of the schedule).
struct AnchorOutcome {
  ValidatorId author = 0;
  uint64_t wave = 0;
  bool committed = false;
};

// Deterministic anchor-author schedule: round-robin base, optionally
// reputation-adjusted. Pure state machine over settled wave outcomes —
// shared verbatim between the live committer and the ReplayBullshark oracle
// so both always derive the same author for the same wave.
class AnchorSchedule {
 public:
  AnchorSchedule(size_t committee_size, const BullsharkConfig& config)
      : n_(committee_size), config_(config) {}

  // Author of wave w's anchor under the current settled-outcome state.
  ValidatorId AuthorOf(uint64_t wave) const;

  // Settles the outcome of `wave` (true = anchor ordered, false = skipped).
  // Must be called in strictly increasing wave order, exactly once per wave,
  // and only after every author lookup belonging to the commit event that
  // settled it (pre-event state rule; see file comment).
  void RecordOutcome(uint64_t wave, ValidatorId author, bool committed);

  // Persistence: the schedule state is a bounded set of per-author latest
  // outcomes plus the settled-wave cursor.
  uint64_t settled_through() const { return settled_through_; }
  std::vector<AnchorOutcome> Snapshot() const;
  void Restore(uint64_t settled_through, const std::vector<AnchorOutcome>& outcomes);

 private:
  bool Disfavored(ValidatorId v) const;

  size_t n_;
  BullsharkConfig config_;
  uint64_t settled_through_ = 0;
  // Most recent settled outcome per author: wave and whether it committed.
  std::map<ValidatorId, std::pair<uint64_t, bool>> last_outcome_;
};

class Bullshark {
 public:
  struct Committed {
    Digest digest{};
    std::shared_ptr<const BlockHeader> header;
    // The wave whose anchor chain delivered this header, the anchor round
    // (2w-1), and the round whose support votes decided the commit (2w).
    uint64_t wave = 0;
    Round anchor_round = 0;
    Round decision_round = 0;
  };

  Bullshark(Primary* primary, const Committee& committee, Round gc_depth,
            BullsharkConfig config = {});

  // Registers a delivery callback: fired once per committed header, in total
  // order. Multiple listeners may register (metrics, applications, tests).
  void add_on_commit(std::function<void(const Committed&)> hook) {
    on_commit_hooks_.push_back(std::move(hook));
  }

  // Attaches the durable consensus store (non-owning; null = ephemeral).
  // Commit records are write-ahead persisted so a recovered validator never
  // re-delivers a header it committed pre-crash.
  void set_store(Store* store) { store_ = store; }

  // Restores the committed set, wave cursor, and settled anchor outcomes
  // from the store. Call after the primary's own Recover() (GC filtering
  // reads its horizon) and before hooks fire; recovery itself delivers
  // nothing. Re-notifies the primary of committed headers still in the DAG
  // so batch re-injection bookkeeping survives the crash too.
  void Recover();

  // Re-evaluates the commit rule over the recovered DAG (post-rejoin
  // counterpart of the certificate hooks, which only fire on new arrivals).
  void Resume() { TryCommit(); }

  // Wire these to the primary's hooks (done by Bullshark's constructor).
  void OnCertificate(const Certificate& cert);
  void OnHeaderStored(const Digest& digest);

  // Attaches the cluster's tracer (counters only; per-header commit stamps
  // come from Primary::NotifyCommitted).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t last_committed_wave() const { return last_committed_wave_; }
  uint64_t committed_headers() const { return committed_count_; }
  uint64_t skipped_anchors() const { return skipped_anchors_; }
  const BullsharkConfig& config() const { return config_; }

  // Rounds of wave w (w >= 1): anchor round and support (decision) round.
  static Round WaveAnchorRound(uint64_t wave) { return 2 * wave - 1; }
  static Round WaveSupportRound(uint64_t wave) { return 2 * wave; }

 private:
  const Certificate* AnchorCert(uint64_t wave) const;
  bool CommitRuleSatisfied(uint64_t wave, const Certificate& anchor) const;
  // Commits the anchor chain ending at wave `wave`. Returns false if the
  // commit had to be deferred on missing headers (sync requested).
  bool CommitChain(uint64_t wave, const Certificate& anchor);
  void TryCommit();
  void PruneCommitted(Round gc_round);
  void PersistCommit(const Digest& digest, Round round);
  void PersistMeta();
  // Settles outcomes for waves (from, through] after a commit event, feeding
  // the reputation schedule and the WAL outcome log.
  void SettleOutcomes(uint64_t from, uint64_t through);

  Primary* primary_;
  const Committee& committee_;
  Round gc_depth_;
  BullsharkConfig config_;
  AnchorSchedule schedule_;
  Tracer* tracer_ = nullptr;

  Store* store_ = nullptr;
  uint64_t last_committed_wave_ = 0;
  std::set<Digest, DigestLess> committed_;
  std::map<Round, std::vector<Digest>> committed_by_round_;
  uint64_t committed_count_ = 0;
  uint64_t skipped_anchors_ = 0;
  uint64_t last_skip_counted_ = 0;

  std::vector<std::function<void(const Committed&)>> on_commit_hooks_;
};

}  // namespace nt

#endif  // SRC_BULLSHARK_BULLSHARK_H_
