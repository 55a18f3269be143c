#include "src/hotstuff/hotstuff.h"

#include <algorithm>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/types/cert_cache.h"

namespace nt {
namespace {

const Digest kGenesisDigest{};  // All zeros.

}  // namespace

HotStuff::HotStuff(ValidatorId id, const Committee& committee, Network* network, Signer* signer,
                   PayloadProvider* provider)
    : id_(id),
      committee_(committee),
      network_(network),
      ledger_(signer),
      provider_(provider),
      timers_(network->scheduler()) {
  committed_.insert(kGenesisDigest);
  high_qc_ = QuorumCert{};  // Genesis QC: zero digest, view 0.
}

void HotStuff::OnStart() {
  provider_->OnStart();
  StartTimer();
  MaybePropose();
}

// ---------------------------------------------------------------- persistence

void HotStuff::PersistLock() {
  Store* store = ledger_.store();
  if (store == nullptr) {
    return;
  }
  PutRecord(*store, HsLockRecord{locked_view_, locked_block_});
  // The lock is part of the safety rule; losing it across a restart could
  // let the node vote for a branch conflicting with a commit in flight.
  store->Sync();
}

void HotStuff::Recover() {
  Store* store = ledger_.store();
  if (store == nullptr) {
    return;
  }
  std::optional<View> proposed_marker;
  HotStuffRecords::ForEach(
      *store, Overloaded{
                  [&](const HsVoteRecord& rec) {
                    last_voted_view_ = rec.view;
                    last_voted_digest_ = rec.digest;
                  },
                  [&](const HsLockRecord& rec) {
                    locked_view_ = rec.view;
                    locked_block_ = rec.digest;
                  },
                  [&](const HsViewRecord& rec) { view_ = std::max(view_, rec.view); },
                  [&](const HsProposedRecord& rec) { proposed_marker = rec.view; },
                  [&](const HsHighQcRecord& rec) {
                    if (rec.qc.view > high_qc_.view) {
                      high_qc_ = rec.qc;
                    }
                  },
                  [&](const HsCommitRecord& rec) {
                    // Block bodies are gone, but the tip terminates ancestor
                    // walks, so catch-up stops at the recovered frontier and
                    // post-recovery commits extend the pre-crash prefix.
                    // Delivery bookkeeping (payload re-injection) is the
                    // commit log's own recovered state.
                    committed_.insert(rec.tip);
                    committed_view_ = rec.view;
                    committed_count_ = rec.count;
                  },
              });
  // A crash between persisting the vote/QC and the view record must not
  // resurrect the node in an older view than it acted in.
  view_ = std::max(view_, std::max(last_voted_view_, high_qc_.view + 1));
  if (proposed_marker.has_value() && *proposed_marker >= view_) {
    proposed_in_view_ = true;  // Never a second proposal for this view.
  }
}

void HotStuff::Broadcast(const MessagePtr& msg) {
  for (ValidatorId v = 0; v < committee_.size(); ++v) {
    if (v != id_) {
      network_->Send(net_id_, peers_[v], msg);
    }
  }
}

const HsBlock* HotStuff::GetBlock(const Digest& digest) const {
  auto it = blocks_.find(digest);
  return it == blocks_.end() ? nullptr : it->second.get();
}

// -------------------------------------------------------------- view machinery

void HotStuff::EnterView(View view) {
  if (view <= view_) {
    return;
  }
  view_ = view;
  proposed_in_view_ = false;
  consecutive_timeouts_ = 0;  // Progress: restart backoff from the base.
  Persist(HsViewRecord{view_});
  StartTimer();
  MaybePropose();
}

void HotStuff::StartTimer() {
  if (view_timer_ != Scheduler::kInvalidTimer) {
    timers_.Cancel(view_timer_);
  }
  View armed_view = view_;
  view_timer_ = timers_.ScheduleAfter(kViewTimeout.Delay(consecutive_timeouts_),
                                      [this, armed_view] { OnTimeout(armed_view); });
}

void HotStuff::OnTimeout(View view) {
  if (view != view_) {
    return;  // Stale timer.
  }
  ++timeouts_fired_;
  ++consecutive_timeouts_;
  NT_TRACE(tracer_, IncrCounter("hotstuff/timeouts"));
  Signature sig = ledger_.SignTimeout(TimeoutCert::VotePreimage(view));
  auto msg = std::make_shared<MsgHsTimeout>(view, id_, sig, high_qc_);
  Broadcast(msg);
  HandleTimeout(*msg);
  StartTimer();  // Same view, doubled timeout.
}

void HotStuff::MaybePropose() {
  if (proposed_in_view_ || LeaderOf(view_) != id_) {
    return;
  }
  auto block = std::make_shared<HsBlock>();
  block->author = id_;
  block->view = view_;
  block->parent = high_qc_.block_digest;
  block->justify = high_qc_;
  if (high_qc_.view + 1 != view_) {
    // Entered this view through timeouts: justify the gap with the TC.
    if (!last_tc_.has_value() || last_tc_->view + 1 != view_) {
      return;  // Cannot justify this view yet; wait for QC or TC.
    }
    block->tc = last_tc_;
  }
  block->payload = provider_->GetPayload(view_);
  Digest digest = block->ComputeDigest();
  // Leader-equivocation guard: the marker is durable before the signature
  // exists, so a restart never proposes a different block in this view.
  block->author_sig = ledger_.SignProposal(HsProposedRecord{view_}, digest);
  proposed_in_view_ = true;

  blocks_[digest] = block;
  Broadcast(std::make_shared<MsgHsProposal>(block, digest));
  timers_.ScheduleRetry(kProposalRetry, 0, [this, block, digest](uint32_t) {
    if (view_ != block->view) {
      return false;  // The view resolved (QC or TC); the proposal is moot.
    }
    Broadcast(std::make_shared<MsgHsProposal>(block, digest));
    return true;
  });
  UpdateChain(*block);
  TryVote(digest);
}

// ---------------------------------------------------------------- proposals

void HotStuff::HandleProposal(uint32_t from, const MsgHsProposal& msg) {
  (void)from;  // Fetch hints use the block author's net id, not the relayer.
  const HsBlock& block = *msg.block;
  if (!committee_.Contains(block.author) || block.author != LeaderOf(block.view)) {
    return;
  }
  if (blocks_.count(msg.digest) != 0) {
    // A duplicate means the leader is retransmitting because it is still
    // short of a QC — our earlier vote may have been the lost message.
    // Re-sending it is safe (same view, same digest; the leader's vote set
    // dedupes by voter) and completes the retransmission loop.
    if (last_voted_view_ == block.view && last_voted_digest_ == msg.digest) {
      CastVote(block, msg.digest);
    }
    return;
  }
  if (msg.digest != block.ComputeDigest() ||
      !ledger_.verifier().Verify(committee_.key_of(block.author), msg.digest,
                                 block.author_sig)) {
    LOG_WARN() << "invalid proposal signature from " << block.author;
    return;
  }
  if (block.parent != block.justify.block_digest) {
    return;  // Malformed: proposals must extend their justification.
  }
  View justified = block.justify.view;
  if (block.tc.has_value()) {
    justified = std::max(justified, block.tc->view);
  }
  if (block.view != justified + 1) {
    return;  // View not justified by QC/TC.
  }
  if (!block.justify.Verify(committee_, ledger_.verifier(), &cert_cache_)) {
    return;
  }
  if (block.tc.has_value() && !block.tc->Verify(committee_, ledger_.verifier(), &cert_cache_)) {
    return;
  }

  blocks_[msg.digest] = msg.block;
  AdoptQc(block.justify);
  UpdateChain(block);
  TryVote(msg.digest);

  // A new block may complete deferred ancestor chains.
  RetryDeferred();
}

bool HotStuff::HaveAncestors(const HsBlock& block) const {
  Digest cursor = block.parent;
  while (cursor != kGenesisDigest && committed_.count(cursor) == 0) {
    const HsBlock* b = GetBlock(cursor);
    if (b == nullptr) {
      return false;
    }
    cursor = b->parent;
  }
  return true;
}

bool HotStuff::Extends(const Digest& descendant, const Digest& ancestor) const {
  Digest cursor = descendant;
  while (cursor != kGenesisDigest) {
    if (cursor == ancestor) {
      return true;
    }
    const HsBlock* b = GetBlock(cursor);
    if (b == nullptr) {
      return false;
    }
    cursor = b->parent;
  }
  return ancestor == kGenesisDigest;
}

void HotStuff::RetryDeferred() {
  // Walk a snapshot: TryVote defers a proposal again while its chain is
  // still incomplete.
  std::vector<Digest> retry;
  for (const auto& [digest, block] : deferred_) {
    retry.push_back(digest);
  }
  for (const Digest& digest : retry) {
    deferred_.erase(digest);
    TryVote(digest);
  }
}

void HotStuff::TryVote(const Digest& digest) {
  const HsBlock* block = GetBlock(digest);
  if (block == nullptr) {
    return;
  }
  if (block->view != view_ || last_voted_view_ >= block->view) {
    return;
  }
  if (!HaveAncestors(*block)) {
    deferred_[digest] = blocks_[digest];
    RequestBlock(block->parent, peers_[block->author]);
    return;
  }
  // Safety rule: extend the lock, or see a newer justification than the lock.
  if (!(block->justify.view > locked_view_ || Extends(digest, locked_block_))) {
    return;
  }
  if (payload_pending_.count(digest) != 0) {
    return;  // Availability fetch in flight.
  }
  uint32_t proposer_net = peers_[block->author];
  if (!provider_->CheckPayload(block->payload, proposer_net, [this, digest] {
        payload_pending_.erase(digest);
        TryVote(digest);
      })) {
    payload_pending_.insert(digest);
    return;
  }
  CastVote(*block, digest);
}

void HotStuff::CastVote(const HsBlock& block, const Digest& digest) {
  last_voted_view_ = block.view;
  last_voted_digest_ = digest;
  // Write-ahead: the vote record is durable before the signature exists, or
  // a crash-restart could sign a conflicting vote.
  Signature sig = ledger_.SignVote(HsVoteRecord{last_voted_view_, last_voted_digest_},
                                   QuorumCert::VotePreimage(digest, block.view));
  auto vote = std::make_shared<MsgHsVote>(digest, block.view, id_, sig);
  ValidatorId next_leader = LeaderOf(block.view + 1);
  if (next_leader == id_) {
    HandleVote(*vote);
  } else {
    network_->Send(net_id_, peers_[next_leader], vote);
  }
}

// ------------------------------------------------------------------ votes/QCs

void HotStuff::HandleVote(const MsgHsVote& msg) {
  if (!committee_.Contains(msg.voter)) {
    return;
  }
  auto key = std::make_pair(msg.view, msg.block_digest);
  std::map<ValidatorId, Signature>& set = vote_sets_[key];
  if (set.count(msg.voter) != 0) {
    return;
  }
  if (!ledger_.verifier().Verify(committee_.key_of(msg.voter),
                                 QuorumCert::VotePreimage(msg.block_digest, msg.view), msg.sig)) {
    return;
  }
  set[msg.voter] = msg.sig;
  if (set.size() < committee_.quorum_threshold()) {
    return;
  }
  const QuorumCert qc{msg.block_digest, msg.view,
                      VoteList(VoteList::Quorum(set, committee_.quorum_threshold()))};
  vote_sets_.erase(key);
  AdoptQc(qc);
}

void HotStuff::AdoptQc(const QuorumCert& qc) {
  if (qc.view > high_qc_.view) {
    high_qc_ = qc;
    Persist(HsHighQcRecord{high_qc_});
  }
  if (qc.view + 1 > view_) {
    EnterView(qc.view + 1);
  }
}

void HotStuff::UpdateChain(const HsBlock& block) {
  // Chained-HotStuff UPDATE (event-driven HotStuff, Algorithm 5):
  //   b'' = justify(b*), b' = justify(b''), b = justify(b').
  //   lock b' on a 2-chain; decide b on a 3-chain with direct parent links.
  const Digest& x_digest = block.justify.block_digest;
  const HsBlock* x = GetBlock(x_digest);
  if (x == nullptr) {
    return;
  }
  const Digest& y_digest = x->justify.block_digest;
  const HsBlock* y = GetBlock(y_digest);
  if (y == nullptr) {
    return;
  }
  if (y->view > locked_view_) {
    locked_view_ = y->view;
    locked_block_ = y_digest;
    PersistLock();
  }
  const Digest& z_digest = y->justify.block_digest;
  const HsBlock* z = GetBlock(z_digest);
  if (z == nullptr) {
    return;
  }
  if (x->parent == y_digest && y->parent == z_digest) {
    CommitUpTo(z_digest);
  }
}

void HotStuff::CommitUpTo(const Digest& digest) {
  const HsBlock* target = GetBlock(digest);
  if (committed_.count(digest) != 0 || (target != nullptr && target->view <= committed_view_)) {
    // At or below the commit frontier: committed already, or on a branch
    // that can never commit. A recovered node holds only the frontier's tip
    // in committed_, so the view check is what keeps an older committed
    // block it re-fetches from being delivered again.
    return;
  }
  // Gather the uncommitted ancestor chain, oldest first.
  std::vector<Digest> chain;
  Digest cursor = digest;
  while (cursor != kGenesisDigest && committed_.count(cursor) == 0) {
    const HsBlock* b = GetBlock(cursor);
    if (b == nullptr) {
      // Missing ancestor: fetch it; the commit recurs when the chain heals.
      RequestBlock(cursor, peers_[LeaderOf(view_)]);
      return;
    }
    chain.push_back(cursor);
    cursor = b->parent;
  }
  std::reverse(chain.begin(), chain.end());
  for (const Digest& d : chain) {
    const HsBlock* b = GetBlock(d);
    // Write-ahead: the commit record is durable before any hook observes it.
    Persist(HsCommitRecord{d, b->view, committed_count_ + 1});
    committed_.insert(d);
    committed_view_ = b->view;
    ++committed_count_;
    NT_TRACE(tracer_, IncrCounter("hotstuff/committed_blocks"));
    provider_->OnCommit(b->payload, b->author);
    if (on_commit_) {
      on_commit_(*b, b->view);
    }
  }
  // Commits are final: QCs/TCs for views below the oldest block just
  // committed will not be presented for verification again (catch-up blocks
  // are digest-bound, not re-verified), so release their cache entries.
  if (!chain.empty()) {
    const HsBlock* oldest = GetBlock(chain.front());
    if (oldest != nullptr && oldest->view > 0) {
      cert_cache_.OnGcRound(oldest->view);
    }
  }
}

// ------------------------------------------------------------------- timeouts

void HotStuff::HandleTimeout(const MsgHsTimeout& msg) {
  if (!committee_.Contains(msg.voter)) {
    return;
  }
  if (msg.view + 1 < view_) {
    return;  // Stale: a TC for this view would not advance us.
  }
  if (!ledger_.verifier().Verify(committee_.key_of(msg.voter), TimeoutCert::VotePreimage(msg.view),
                                 msg.sig)) {
    return;
  }
  // The attached high QC helps laggards catch up — but only if it is real; a
  // Byzantine voter must not be able to fast-forward views with a forgery.
  if (msg.high_qc.Verify(committee_, ledger_.verifier(), &cert_cache_)) {
    AdoptQc(msg.high_qc);
  }
  auto& set = timeout_sets_[msg.view];
  bool fresh = set.emplace(msg.voter, msg.sig).second;
  // Direct reconciliation: a peer timing out our current view may have
  // missed our own timeout broadcast (it is only re-sent on this node's
  // exponentially backed-off view timer, which can be tens of seconds deep
  // in a stuck view). Answer the first timeout we see from each peer with
  // our signature so the exchange converges pairwise in one round trip.
  // Replying only to fresh signatures makes the echo terminate.
  if (fresh && msg.view == view_ && msg.voter != id_ && set.count(id_) != 0) {
    Signature sig = ledger_.SignTimeout(TimeoutCert::VotePreimage(msg.view));
    network_->Send(net_id_, peers_[msg.voter],
                   std::make_shared<MsgHsTimeout>(msg.view, id_, sig, high_qc_));
  }
  if (set.size() < committee_.quorum_threshold()) {
    // Timeout amplification (the f+1 rule of LibraBFT-style pacemakers):
    // if a validity quorum is timing out a view at or above ours and we have
    // not joined yet, join immediately. Without this, validators split
    // across adjacent views can deadlock — each view one signature short of
    // a timeout certificate.
    if (set.size() >= committee_.validity_threshold() && msg.view >= view_ &&
        set.count(id_) == 0) {
      if (msg.view > view_) {
        view_ = msg.view;  // Jump without proposing; safety is unaffected.
        proposed_in_view_ = false;
        consecutive_timeouts_ = 0;
        Persist(HsViewRecord{view_});
      }
      OnTimeout(view_);  // Sign + broadcast + rearm the backoff timer.
    }
    return;
  }
  const TimeoutCert tc{msg.view, VoteList(VoteList::Quorum(set, committee_.quorum_threshold()))};
  if (!last_tc_.has_value() || tc.view > last_tc_->view) {
    last_tc_ = tc;
  }
  timeout_sets_.erase(msg.view);
  EnterView(tc.view + 1);
}

// -------------------------------------------------------------------- catch-up

void HotStuff::RequestBlock(const Digest& digest, uint32_t hint) {
  if (digest == kGenesisDigest || blocks_.count(digest) != 0) {
    return;
  }
  if (!fetching_blocks_.insert(digest).second) {
    return;
  }
  network_->Send(net_id_, hint, std::make_shared<MsgHsBlockRequest>(digest));
  // Blocks are never dropped, so the digest stays in fetching_blocks_ until
  // the block arrives.
  timers_.ScheduleRetry(kBlockFetch, 0, [this, digest](uint32_t) {
    if (blocks_.count(digest) != 0) {
      return false;
    }
    // Rotate: ask a different validator next time.
    network_->Send(net_id_,
                   peers_[(id_ + 1 + fetch_rotation_++ % committee_.size()) % committee_.size()],
                   std::make_shared<MsgHsBlockRequest>(digest));
    return true;
  });
}

// -------------------------------------------------------------------- dispatch

void HotStuff::OnMessage(uint32_t from, const MessagePtr& msg) {
  const bool handled = Dispatch(
      Handles{}, *msg,
      [&](const MsgHsProposal& proposal) { HandleProposal(from, proposal); },
      [&](const MsgHsVote& vote) { HandleVote(vote); },
      [&](const MsgHsTimeout& timeout) { HandleTimeout(timeout); },
      [&](const MsgHsBlockRequest& request) {
        auto it = blocks_.find(request.digest);
        if (it != blocks_.end()) {
          network_->Send(net_id_, from,
                         std::make_shared<MsgHsBlockResponse>(it->second, it->first));
        }
      },
      [&](const MsgHsBlockResponse& response) {
        if (response.block->ComputeDigest() != response.digest) {
          return;
        }
        fetching_blocks_.erase(response.digest);
        if (blocks_.emplace(response.digest, response.block).second) {
          UpdateChain(*response.block);
          // Recursively heal the chain if needed, then retry deferred votes.
          if (response.block->parent != kGenesisDigest &&
              blocks_.count(response.block->parent) == 0 &&
              committed_.count(response.block->parent) == 0) {
            RequestBlock(response.block->parent, from);
          }
          RetryDeferred();
        }
      });
  if (!handled) {
    // Mempool-mode traffic (gossip, batches) belongs to the provider.
    provider_->OnMessage(from, msg);
  }
}

}  // namespace nt
