// Chained HotStuff [38] with a LibraBFT-style pacemaker (paper §6: "we
// implement the pacemaker module that is abstracted away following the
// LibraBFT specification").
//
//  - Round-robin leaders; one proposal per view extending the highest QC.
//  - Votes go to the next view's leader, who aggregates 2f+1 into a QC.
//  - Safety: vote for a proposal iff it extends the locked block or its
//    justify QC is newer than the lock; lock advances on 2-chains; commit on
//    3-chains with direct parent links.
//  - Liveness: per-view timers with exponential backoff; 2f+1 timeout
//    messages form a timeout certificate that justifies the next view.
//
// The payload is pluggable (PayloadProvider), yielding baseline-HS,
// Batched-HS, and Narwhal-HS from one consensus core.
#ifndef SRC_HOTSTUFF_HOTSTUFF_H_
#define SRC_HOTSTUFF_HOTSTUFF_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "src/common/trace.h"
#include "src/hotstuff/messages.h"
#include "src/hotstuff/payload.h"
#include "src/net/network.h"
#include "src/sim/timers.h"
#include "src/store/ledger.h"
#include "src/store/record.h"
#include "src/store/store.h"
#include "src/types/cert_cache.h"
#include "src/types/committee.h"

namespace nt {

// ---- the HotStuff core's consensus-store WAL records ---------------------
//
// The vote-safety ledger, one latest-only record each. Blocks themselves are
// not persisted: a recovered node re-fetches chain bodies through ancestor
// catch-up.

// 'W': the last vote cast. Synced before the vote leaves, or a restart
// could sign a conflicting vote.
struct HsVoteRecord {
  static constexpr uint8_t kTag = 'W';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  View view = 0;
  Digest digest{};

  Digest Key() const { return Sha256::Hash(std::string_view("hs/vote")); }
  void Encode(Writer& w) const {
    w.PutU64(view);
    w.PutRaw(digest);
  }
  static std::optional<HsVoteRecord> Decode(Reader& r) {
    HsVoteRecord rec{r.GetU64(), r.GetArray<32>()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
};

// 'L': the locked block. Part of the safety rule; losing it across a restart
// could let the node vote for a branch conflicting with a commit in flight.
struct HsLockRecord {
  static constexpr uint8_t kTag = 'L';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  View view = 0;
  Digest digest{};

  Digest Key() const { return Sha256::Hash(std::string_view("hs/lock")); }
  void Encode(Writer& w) const {
    w.PutU64(view);
    w.PutRaw(digest);
  }
  static std::optional<HsLockRecord> Decode(Reader& r) {
    HsLockRecord rec{r.GetU64(), r.GetArray<32>()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
};

// 'E': the current view.
struct HsViewRecord {
  static constexpr uint8_t kTag = 'E';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  View view = 0;

  Digest Key() const { return Sha256::Hash(std::string_view("hs/view")); }
  void Encode(Writer& w) const { w.PutU64(view); }
  static std::optional<HsViewRecord> Decode(Reader& r) {
    HsViewRecord rec{r.GetU64()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
};

// 'F': the last view this node proposed in. Synced before the proposal
// leaves: a restart must not propose a different block in that view.
struct HsProposedRecord {
  static constexpr uint8_t kTag = 'F';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  View view = 0;

  Digest Key() const { return Sha256::Hash(std::string_view("hs/proposed")); }
  void Encode(Writer& w) const { w.PutU64(view); }
  static std::optional<HsProposedRecord> Decode(Reader& r) {
    HsProposedRecord rec{r.GetU64()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
};

// 'Q': the highest QC seen.
struct HsHighQcRecord {
  static constexpr uint8_t kTag = 'Q';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  QuorumCert qc;

  Digest Key() const { return Sha256::Hash(std::string_view("hs/highqc")); }
  void Encode(Writer& w) const {
    w.PutRaw(qc.block_digest);
    w.PutU64(qc.view);
    qc.votes.Encode(w);
  }
  static std::optional<HsHighQcRecord> Decode(Reader& r) {
    HsHighQcRecord rec{{r.GetArray<32>(), r.GetU64(), {}}};
    std::optional<VoteList> votes = VoteList::Decode(r);
    if (!votes.has_value() || !r.AtEnd()) {
      return std::nullopt;
    }
    rec.qc.votes = std::move(*votes);
    return rec;
  }
};

// 'K': the commit frontier — the newest committed block, its view and the
// number of blocks committed so far. Written before each commit is
// delivered. The committed chain is linear, so the tip stands for every
// block below it; see DESIGN "WAL records" for why a recovered node cannot
// deliver a block twice.
struct HsCommitRecord {
  static constexpr uint8_t kTag = 'K';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  Digest tip{};
  View view = 0;
  uint64_t count = 0;

  Digest Key() const { return Sha256::Hash(std::string_view("hs/commit")); }
  void Encode(Writer& w) const {
    w.PutRaw(tip);
    w.PutU64(view);
    w.PutU64(count);
  }
  static std::optional<HsCommitRecord> Decode(Reader& r) {
    HsCommitRecord rec{r.GetArray<32>(), r.GetU64(), r.GetU64()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
};

using HotStuffRecords = RecordList<HsVoteRecord, HsLockRecord, HsViewRecord, HsProposedRecord,
                                   HsHighQcRecord, HsCommitRecord>;

class HotStuff : public NetNode {
 public:
  // The messages OnMessage dispatches; the rest go to the payload provider.
  using Handles = MessageList<MsgHsProposal, MsgHsVote, MsgHsTimeout, MsgHsBlockRequest,
                              MsgHsBlockResponse>;

  HotStuff(ValidatorId id, const Committee& committee, Network* network, Signer* signer,
           PayloadProvider* provider);

  void set_net_id(uint32_t id) { net_id_ = id; }

  // Attaches the durable consensus store (non-owning; null = ephemeral).
  // The vote-safety ledger (last vote, lock, view, proposal marker, high QC,
  // commit frontier) is write-ahead persisted; blocks themselves are not —
  // a recovered node re-fetches chain bodies through the existing ancestor
  // catch-up path.
  void set_store(Store* store) { ledger_.set_store(store); }

  // Restores the vote-safety ledger from the store. Call after construction
  // and before OnStart. The restored last-voted/lock/proposed-view state is
  // the double-vote (equivocation) guard: a recovered validator never signs
  // a second vote or proposal for a view it signed pre-crash.
  void Recover();
  void set_peers(std::vector<uint32_t> consensus_net_ids) { peers_ = std::move(consensus_net_ids); }

  // Attaches the cluster's tracer (nullptr = tracing off, the default).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Fired per committed block, in total order.
  using CommitHook = std::function<void(const HsBlock& block, View view)>;
  void set_on_commit(CommitHook hook) { on_commit_ = std::move(hook); }

  // --- NetNode -----------------------------------------------------------------
  void OnStart() override;
  void OnMessage(uint32_t from, const MessagePtr& msg) override;

  // --- introspection -------------------------------------------------------------
  View current_view() const { return view_; }
  uint64_t committed_blocks() const { return committed_count_; }
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  // Safety state and waits, for stall reports: the highest QC's view, the
  // locked block's view, the last view voted in, proposals deferred on
  // payload or missing ancestors, those of them waiting on payload, and
  // ancestor blocks being fetched.
  View high_qc_view() const { return high_qc_.view; }
  View locked_view() const { return locked_view_; }
  View last_voted_view() const { return last_voted_view_; }
  size_t deferred_proposals() const { return deferred_.size(); }
  size_t payload_pending_proposals() const { return payload_pending_.size(); }
  size_t blocks_fetching() const { return fetching_blocks_.size(); }
  ValidatorId LeaderOf(View view) const { return static_cast<ValidatorId>(view % committee_.size()); }
  // This node's verified-QC/TC cache — per-instance so every simulated
  // validator re-verifies certificates independently (see
  // src/types/cert_cache.h).
  VerifiedCertCache& cert_cache() { return cert_cache_; }

 private:
  // View lifecycle.
  void EnterView(View view);
  void MaybePropose();
  void StartTimer();
  void OnTimeout(View view);

  // Proposal path.
  void HandleProposal(uint32_t from, const MsgHsProposal& msg);
  void TryVote(const Digest& digest);
  // Retries every deferred proposal (after a block arrives that may
  // complete its ancestor chain).
  void RetryDeferred();
  void CastVote(const HsBlock& block, const Digest& digest);

  // Vote/QC path.
  void HandleVote(const MsgHsVote& msg);
  void AdoptQc(const QuorumCert& qc);
  void UpdateChain(const HsBlock& block);
  void CommitUpTo(const Digest& digest);

  // Timeout path.
  void HandleTimeout(const MsgHsTimeout& msg);

  // Ancestor catch-up.
  void RequestBlock(const Digest& digest, uint32_t hint);
  bool HaveAncestors(const HsBlock& block) const;
  bool Extends(const Digest& descendant, const Digest& ancestor) const;

  const HsBlock* GetBlock(const Digest& digest) const;
  void Broadcast(const MessagePtr& msg);

  // WAL writes (no-ops without a store). The signing-boundary ones go
  // through the ledger.
  template <typename R>
  void Persist(const R& record) {
    if (Store* store = ledger_.store(); store != nullptr) {
      PutRecord(*store, record);
    }
  }
  void PersistLock();

  ValidatorId id_;
  const Committee& committee_;
  Network* network_;
  SigningLedger ledger_;  // The signing key and the durable store.
  PayloadProvider* provider_;
  uint32_t net_id_ = 0;
  Tracer* tracer_ = nullptr;
  std::vector<uint32_t> peers_;  // Indexed by validator id (own id included).

  View view_ = 1;
  bool proposed_in_view_ = false;
  View last_voted_view_ = 0;
  Digest last_voted_digest_{};
  uint32_t consecutive_timeouts_ = 0;
  uint32_t fetch_rotation_ = 0;
  Scheduler::TimerId view_timer_ = Scheduler::kInvalidTimer;

  VerifiedCertCache cert_cache_;
  QuorumCert high_qc_;          // Genesis QC initially.
  std::optional<TimeoutCert> last_tc_;
  Digest locked_block_{};       // Genesis digest (zero).
  View locked_view_ = 0;

  std::map<Digest, std::shared_ptr<const HsBlock>> blocks_;
  // Committed blocks this process saw commit, plus the recovered frontier's
  // tip: ancestor walks stop at any of them.
  std::set<Digest> committed_;
  // The newest committed block's view. Every block at or below it is either
  // committed or on a branch that can never commit.
  View committed_view_ = 0;

  // Votes collected by this node as leader: (view, digest) -> votes.
  std::map<std::pair<View, Digest>, std::map<ValidatorId, Signature>> vote_sets_;
  // Timeout messages per view.
  std::map<View, std::map<ValidatorId, Signature>> timeout_sets_;

  // Proposals deferred on payload availability or missing ancestors.
  std::map<Digest, std::shared_ptr<const HsBlock>> deferred_;
  std::set<Digest> payload_pending_;
  std::set<Digest> fetching_blocks_;

  CommitHook on_commit_;
  uint64_t committed_count_ = 0;
  uint64_t timeouts_fired_ = 0;

  Timers timers_;  // Every timer of this node.
};

}  // namespace nt

#endif  // SRC_HOTSTUFF_HOTSTUFF_H_
