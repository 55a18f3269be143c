#include "src/narwhal/commit_log.h"

#include "src/common/codec.h"

namespace nt {

void CommitLog::Recover() {
  if (store_ == nullptr) {
    return;
  }
  const Dag& dag = primary_->dag();
  const Round gc_round = dag.gc_round();
  ForEachRecord<CommitRecord>(*store_, [&](const CommitRecord& rec) {
    if (rec.round >= gc_round && committed_.insert(rec.digest)) {
      committed_by_round_[rec.round].push_back(rec.digest);
      ++committed_count_;
    }
  });
  // Refresh the primary's commit bookkeeping (committed batches, own-header
  // re-injection) for committed headers the recovered DAG still holds; the
  // crash-restart must not cause committed payload to be re-injected.
  committed_.ForEachSorted(DigestLess{}, [&](const Digest& digest, Present) {
    auto header = dag.GetHeader(digest);
    if (header != nullptr) {
      primary_->NotifyCommitted(digest, *header);
    }
  });
}

Dag::History CommitLog::Walk(const Digest& anchor, const DigestSet& committed) {
  ++history_walks_;
  return primary_->dag().CollectCausalHistory(anchor, committed);
}

bool CommitLog::RequestMissing(const Dag::History& history) {
  for (const Digest& missing : history.missing) {
    primary_->SyncHeader(missing);
  }
  return history.missing.empty();
}

std::optional<Dag::History> CommitLog::CompleteHistory(const Digest& anchor) {
  Dag::History history = Walk(anchor, committed_);
  if (!RequestMissing(history)) {
    return std::nullopt;
  }
  return history;
}

bool CommitLog::Deliver(const std::vector<const Certificate*>& anchors, Dag::History last,
                        uint64_t wave, Round decision_round) {
  const Dag& dag = primary_->dag();

  // First pass: every history must be locally complete; request any gaps and
  // defer. A later anchor's walk treats the earlier anchors' histories as
  // committed; that union is only materialized for chains of two or more.
  std::vector<Dag::History> histories;
  if (anchors.size() > 1) {
    DigestSet chain_committed = committed_;
    for (size_t i = 0; i + 1 < anchors.size(); ++i) {
      Dag::History history = Walk(anchors[i]->header_digest, chain_committed);
      if (!RequestMissing(history)) {
        return false;
      }
      for (const Digest& digest : history.ordered) {
        chain_committed.insert(digest);
      }
      histories.push_back(std::move(history));
    }
    // The last anchor's walk saw only committed_. What it reached through
    // an earlier anchor's history lies wholly inside that history (a
    // history holds everything uncommitted below its vertices), so dropping
    // the earlier histories' vertices leaves exactly the walk that treats
    // them as committed, still in (round, author) order.
    std::erase_if(last.ordered,
                  [&](const Digest& digest) { return chain_committed.contains(digest); });
  }
  histories.push_back(std::move(last));

  // Second pass: deliver.
  for (size_t i = 0; i < anchors.size(); ++i) {
    for (const Digest& digest : histories[i].ordered) {
      auto header = dag.GetHeader(digest);
      // Write-ahead: the commit record is durable before any hook (metrics,
      // executor, checker) observes the delivery.
      if (store_ != nullptr) {
        PutRecord(*store_, CommitRecord{header->round, digest});
      }
      committed_.insert(digest);
      committed_by_round_[header->round].push_back(digest);
      ++committed_count_;
      primary_->NotifyCommitted(digest, *header);
      if (!on_commit_hooks_.empty()) {
        Committed out;
        out.digest = digest;
        out.header = header;
        out.wave = wave;
        out.leader_round = anchors[i]->round;
        out.decision_round = decision_round;
        for (const auto& hook : on_commit_hooks_) {
          hook(out);
        }
      }
    }
  }
  return true;
}

void CommitLog::AdvanceGc(Round anchor_round) {
  if (anchor_round <= gc_depth_) {
    return;
  }
  const Round gc_round = anchor_round - gc_depth_;
  primary_->SetGcRound(gc_round);
  for (auto it = committed_by_round_.begin();
       it != committed_by_round_.end() && it->first < gc_round;) {
    for (const Digest& digest : it->second) {
      committed_.erase(digest);
      if (store_ != nullptr) {
        store_->Erase(CommitRecord::KeyOf(digest));
      }
    }
    it = committed_by_round_.erase(it);
  }
}

}  // namespace nt
