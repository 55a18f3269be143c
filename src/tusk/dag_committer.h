// DagCommitter: the one copy of what every DAG committer over Narwhal shares
// (paper §8.2: a committer is a small rule over the same local DAG).
//
// Tusk, Bullshark and DAG-Rider all interpret the local DAG in waves: each
// wave w has a leader block at LeaderRound(w) and a DecisionRound(w) whose
// blocks decide whether the leader commits. Everything except that rule
// lives here:
//
//   - the in-order wave loop (waves are interpreted strictly in order, up to
//     the highest wave whose decision round exists locally);
//   - the chain walk: a committed leader walks back through the skipped
//     waves, ordering every earlier leader it reaches by DAG path (Lemma 1),
//     and hands the chain to its CommitLog, which delivers the leaders'
//     causal histories (src/narwhal/commit_log.h);
//   - the CommitterMeta record (wave cursor, then the rule's own state) with
//     its durability barrier, and Resume for crash–restart;
//   - the skipped/committed counters and the tracer counters.
//
// A subclass supplies the wave arithmetic, the leader, the support test and
// (optionally) extra meta state, a readiness gate, a no-GC rule, and a hook
// that settles wave outcomes after each commit event.
#ifndef SRC_TUSK_DAG_COMMITTER_H_
#define SRC_TUSK_DAG_COMMITTER_H_

#include <functional>
#include <string>
#include <string_view>

#include "src/common/codec.h"
#include "src/narwhal/commit_log.h"
#include "src/narwhal/primary.h"

namespace nt {

// 'U': the committer's wave cursor, then the rule's own state (EncodeMeta's
// bytes, running to the end of the record). The "tusk/meta" key is Tusk's,
// kept so WALs written by earlier Tusk builds still recover.
struct CommitterMeta {
  static constexpr uint8_t kTag = 'U';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  uint64_t wave = 0;
  Bytes rule_state;

  Digest Key() const { return Sha256::Hash(std::string_view("tusk/meta")); }
  static auto Fields(auto& self) { return WireFields(self.wave, Tail{self.rule_state}); }
};

class DagCommitter {
 public:
  using Committed = CommitLog::Committed;

  virtual ~DagCommitter() = default;

  DagCommitter(const DagCommitter&) = delete;
  DagCommitter& operator=(const DagCommitter&) = delete;

  // The committer's delivery path: committed set, commit records, hooks.
  CommitLog* commit_log() { return &commit_log_; }
  // Registers a delivery callback on the commit log (see CommitLog).
  void add_on_commit(std::function<void(const Committed&)> hook) {
    commit_log_.add_on_commit(std::move(hook));
  }

  // Attaches the durable consensus store (non-owning; null = ephemeral) for
  // the CommitterMeta record. The commit log takes the same store separately.
  void set_store(Store* store) { store_ = store; }

  // Restores the wave cursor and the rule's meta state from the store; the
  // commit log recovers its committed set on its own (CommitLog::Recover).
  void Recover();

  // Re-evaluates the commit rule over the recovered DAG (post-rejoin
  // counterpart of the certificate hooks, which only fire on new arrivals).
  void Resume() { TryCommit(); }

  // Wired to the primary's hooks by the constructor.
  void OnCertificate(const Certificate& cert);
  void OnHeaderStored(const Digest& digest);

  // Attaches the cluster's tracer (counters only; per-header commit stamps
  // come from Primary::NotifyCommitted).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t last_committed_wave() const { return last_committed_wave_; }
  uint64_t committed_headers() const { return commit_log_.committed_headers(); }
  // Waves whose leader was present but lacked support (each counted once).
  uint64_t skipped_leaders() const { return skipped_leaders_; }
  // Causal-history walks made by commit delivery: one per delivered leader,
  // plus one per attempt deferred on missing headers.
  uint64_t history_walks() const { return commit_log_.history_walks(); }

  // The rule's wave arithmetic (w >= 1).
  virtual Round LeaderRound(uint64_t wave) const = 0;
  virtual Round DecisionRound(uint64_t wave) const = 0;

 protected:
  // `skipped_counter` and `waves_counter` name the tracer counters bumped on
  // a skipped leader and on a committed wave.
  DagCommitter(Primary* primary, const Committee& committee, Round gc_depth,
               std::string skipped_counter, std::string waves_counter);

  // The validator whose LeaderRound(wave) block leads wave `wave`.
  virtual ValidatorId LeaderOf(uint64_t wave) const = 0;
  // True if `leader` has enough support in the local DAG to commit now.
  virtual bool Supported(uint64_t wave, const Certificate& leader) const = 0;
  // False while wave `wave` cannot be interpreted yet; the loop stops there.
  virtual bool WaveReady(uint64_t /*wave*/) const { return true; }
  // False for rules that must retain all history (DAG-Rider's weak links).
  virtual bool CollectsGarbage() const { return true; }
  // Called after a commit event delivered waves (from, through], before the
  // cursor advances and the meta record is written.
  virtual void SettleWaves(uint64_t /*from*/, uint64_t /*through*/) {}
  // Rule-specific state riding in the meta record after the wave cursor.
  // DecodeMeta reads the whole rest of the record, and leaves the rule's
  // state as it is unless that is exactly one encoding of it.
  virtual void EncodeMeta(Writer& /*w*/) const {}
  virtual void DecodeMeta(Reader& /*r*/) {}

  const Dag& dag() const { return primary_->dag(); }
  const Committee& committee() const { return committee_; }
  bool IsCommitted(const Digest& digest) const { return commit_log_.IsCommitted(digest); }
  // The leader block of `wave` in the local view, or null.
  const Certificate* LeaderCert(uint64_t wave) const;
  // Certified blocks of the next round that reference `leader` as a direct
  // parent: one probe of the DAG's citer index.
  uint32_t DirectSupport(const Certificate& leader) const {
    return dag().Citers(leader.header_digest);
  }
  // True once `round` holds a quorum (2f+1) of certificates locally: the
  // point at which a coin-elected rule can reveal the wave's leader.
  bool HasQuorumAt(Round round) const;

 private:
  void TryCommit();
  // Commits the leader chain ending at wave `wave`. Returns false if the
  // commit had to be deferred on missing headers (sync requested).
  bool CommitChain(uint64_t wave, const Certificate& leader);
  void PersistMeta();

  Primary* primary_;
  const Committee& committee_;
  std::string skipped_counter_;
  std::string waves_counter_;
  Tracer* tracer_ = nullptr;
  CommitLog commit_log_;

  Store* store_ = nullptr;
  uint64_t last_committed_wave_ = 0;
  uint64_t skipped_leaders_ = 0;
  uint64_t last_skip_counted_ = 0;
};

}  // namespace nt

#endif  // SRC_TUSK_DAG_COMMITTER_H_
