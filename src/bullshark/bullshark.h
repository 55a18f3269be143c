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
// The wave loop, anchor-chain walk, WAL records and recovery are
// DagCommitter's; this class holds only the rule and the anchor schedule.
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
// over the same outcome sequence — e.g. the ReplayCommits reference — derives
// the identical schedule. Caveat: under extreme fault mixes, validators can
// settle outcomes at different event granularities and transiently disagree
// on far-future anchor authors; the flag therefore defaults to off and the
// DST corpus runs with it off.
#ifndef SRC_BULLSHARK_BULLSHARK_H_
#define SRC_BULLSHARK_BULLSHARK_H_

#include <map>
#include <vector>

#include "src/tusk/dag_committer.h"

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

  static auto Fields(auto& self) { return WireFields(self.author, self.wave, self.committed); }
};

// The schedule's state, as Bullshark's rule state in the 'U' record: the
// settled-wave cursor and each author's latest settled outcome.
struct AnchorScheduleState {
  uint64_t settled_through = 0;
  std::vector<AnchorOutcome> outcomes;

  static auto Fields(auto& self) { return WireFields(self.settled_through, self.outcomes); }
};

// Deterministic anchor-author schedule: round-robin base, optionally
// reputation-adjusted. Pure state machine over settled wave outcomes —
// shared verbatim between the live committer and the ReplayCommits reference
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
  AnchorScheduleState Snapshot() const;
  void Restore(const AnchorScheduleState& state);

 private:
  bool Disfavored(ValidatorId v) const;

  size_t n_;
  BullsharkConfig config_;
  uint64_t settled_through_ = 0;
  // Most recent settled outcome per author: wave and whether it committed.
  std::map<ValidatorId, std::pair<uint64_t, bool>> last_outcome_;
};

class Bullshark : public DagCommitter {
 public:
  Bullshark(Primary* primary, const Committee& committee, Round gc_depth,
            BullsharkConfig config = {});

  // Anchors whose author was scheduled but lacked support (the Bullshark
  // name for DagCommitter::skipped_leaders).
  uint64_t skipped_anchors() const { return skipped_leaders(); }
  const BullsharkConfig& config() const { return config_; }

  // Rounds of wave w (w >= 1): anchor round and support (decision) round.
  static Round WaveAnchorRound(uint64_t wave) { return 2 * wave - 1; }
  static Round WaveSupportRound(uint64_t wave) { return 2 * wave; }

  Round LeaderRound(uint64_t wave) const override { return WaveAnchorRound(wave); }
  Round DecisionRound(uint64_t wave) const override { return WaveSupportRound(wave); }

 protected:
  ValidatorId LeaderOf(uint64_t wave) const override { return schedule_.AuthorOf(wave); }
  // Unlike Tusk there is no decision-round quorum gate: f+1 support votes
  // guarantee every later-round certificate reaches the anchor by path, so
  // a later wave orders a skipped one if anyone committed it.
  bool Supported(uint64_t wave, const Certificate& anchor) const override;
  // Settles outcomes for waves (from, through] after a commit event, feeding
  // the reputation schedule (and through EncodeMeta, the WAL).
  void SettleWaves(uint64_t from, uint64_t through) override;
  // The schedule state rides in the meta record: it is bounded (one latest
  // outcome per author) and must survive restarts even with reputation off,
  // so flipping the flag on a recovered store stays well-defined.
  void EncodeMeta(Writer& w) const override;
  void DecodeMeta(Reader& r) override;

 private:
  BullsharkConfig config_;
  AnchorSchedule schedule_;
};

}  // namespace nt

#endif  // SRC_BULLSHARK_BULLSHARK_H_
