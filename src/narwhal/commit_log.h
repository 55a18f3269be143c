// CommitLog: the one delivery path shared by every system that orders
// Narwhal certificates (paper §3.2 and §5; Bullshark does the same).
//
// Consensus decides anchors: a Tusk, Bullshark or DAG-Rider wave leader
// (DagCommitter), or the certificate a committed HotStuff block carries
// (NarwhalProvider). Once an anchor is fixed, its uncommitted causal history
// is delivered in one deterministic order. Everything that delivery needs
// lives here:
//
//   - the committed-header set, indexed by round, and the commit hooks;
//   - a write-ahead CommitRecord ('T') per delivered header, its recovery,
//     and pruning of both below the garbage-collection horizon;
//   - the two-pass delivery of an anchor chain: nothing is delivered until
//     every anchor's causal history is locally complete ("conservative
//     synchronization"); gaps are requested from peers instead. Each
//     anchor's history is walked once per commit event: the caller's
//     completeness walk of the last anchor is the one delivered;
//   - the GC advance relative to the anchor round (paper §3.3).
#ifndef SRC_NARWHAL_COMMIT_LOG_H_
#define SRC_NARWHAL_COMMIT_LOG_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/narwhal/primary.h"

namespace nt {

// 'T': one delivered header. The tag and key are Tusk's, kept so WALs written
// by earlier Tusk builds still recover.
struct CommitRecord {
  static constexpr uint8_t kTag = 'T';
  static constexpr Prune kPrune = Prune::kGcHorizon;
  Round round = 0;
  Digest digest{};

  static Digest KeyOf(const Digest& digest) { return TaggedKey(kTag, digest); }
  Digest Key() const { return KeyOf(digest); }
  static auto Fields(auto& self) { return WireFields(self.round, self.digest); }
};

class CommitLog {
 public:
  struct Committed {
    Digest digest{};
    std::shared_ptr<const BlockHeader> header;
    // The wave whose leader chain delivered this header, the round of the
    // anchor that delivered it, and the round whose blocks decided the
    // wave's commit. HotStuff-ordered anchors have no waves: wave and
    // decision_round are 0.
    uint64_t wave = 0;
    Round leader_round = 0;
    Round decision_round = 0;
  };

  CommitLog(Primary* primary, Round gc_depth) : primary_(primary), gc_depth_(gc_depth) {}

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  // Registers a delivery callback: fired once per committed header, in total
  // order. Multiple listeners may register (metrics, applications, tests).
  void add_on_commit(std::function<void(const Committed&)> hook) {
    on_commit_hooks_.push_back(std::move(hook));
  }

  // Attaches the durable consensus store (non-owning; null = ephemeral).
  // Commit records are write-ahead persisted so a recovered validator never
  // re-delivers a header it committed pre-crash.
  void set_store(Store* store) { store_ = store; }

  // Restores the committed set from the store. Call after the primary's own
  // Recover() (records below its GC horizon are dropped) and before hooks
  // fire; recovery itself delivers nothing. Re-notifies the primary of
  // committed headers still in the DAG so batch re-injection bookkeeping
  // survives the crash too.
  void Recover();

  bool IsCommitted(const Digest& digest) const { return committed_.contains(digest); }
  uint64_t committed_headers() const { return committed_count_; }
  // Causal-history walks taken so far (a deterministic work counter).
  uint64_t history_walks() const { return history_walks_; }

  // `anchor`'s uncommitted causal history if it is locally complete;
  // otherwise asks peers for every missing header and returns nullopt.
  std::optional<Dag::History> CompleteHistory(const Digest& anchor);

  // Delivers the uncommitted causal histories of `anchors`, oldest first.
  // `last` is CompleteHistory(anchors.back()), taken in this commit event
  // with nothing delivered since. All or nothing: if any earlier anchor's
  // history has a gap, the gaps are requested and false is returned with
  // nothing delivered.
  bool Deliver(const std::vector<const Certificate*>& anchors, Dag::History last, uint64_t wave,
               Round decision_round);

  // Moves the garbage-collection horizon to gc_depth rounds below
  // `anchor_round` and prunes commit records under it.
  void AdvanceGc(Round anchor_round);

 private:
  // Walks `anchor`'s causal history, excluding `committed`.
  Dag::History Walk(const Digest& anchor, const DigestSet& committed);
  // Requests every header in `history.missing`; true if there were none.
  bool RequestMissing(const Dag::History& history);

  Primary* primary_;
  Round gc_depth_;
  Store* store_ = nullptr;

  DigestSet committed_;
  std::map<Round, std::vector<Digest>> committed_by_round_;
  uint64_t committed_count_ = 0;
  uint64_t history_walks_ = 0;

  std::vector<std::function<void(const Committed&)>> on_commit_hooks_;
};

}  // namespace nt

#endif  // SRC_NARWHAL_COMMIT_LOG_H_
