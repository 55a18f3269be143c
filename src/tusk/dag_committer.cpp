#include "src/tusk/dag_committer.h"

#include <algorithm>
#include <string_view>

#include "src/common/logging.h"

namespace nt {

DagCommitter::DagCommitter(Primary* primary, const Committee& committee, Round gc_depth,
                           std::string skipped_counter, std::string waves_counter)
    : primary_(primary),
      committee_(committee),
      gc_depth_(gc_depth),
      skipped_counter_(std::move(skipped_counter)),
      waves_counter_(std::move(waves_counter)) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

void DagCommitter::OnCertificate(const Certificate&) { TryCommit(); }

void DagCommitter::OnHeaderStored(const Digest&) { TryCommit(); }

// ---------------------------------------------------------------- persistence

namespace {
// Consensus-store records: 'T' commit entries (one per delivered header),
// 'U' meta (wave cursor, then the rule's own state). The tags and the
// "tusk/meta" key are Tusk's, kept so WALs written by earlier Tusk builds
// still recover. The store is shared with other consensus interpreters
// (HotStuff's ledger, NarwhalProvider's 'N'), so tags stay globally unique.
Digest CommitKey(const Digest& digest) {
  Writer w;
  w.PutU8('T');
  w.PutRaw(digest);
  return Sha256::Hash(w.bytes().data(), w.size());
}
Digest MetaKey() { return Sha256::Hash(std::string_view("tusk/meta")); }
}  // namespace

void DagCommitter::PersistCommit(const Digest& digest, Round round) {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('T');
  w.PutU64(round);
  w.PutRaw(digest);
  store_->Put(CommitKey(digest), w.Take());
}

void DagCommitter::PersistMeta() {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('U');
  w.PutU64(last_committed_wave_);
  EncodeMeta(w);
  store_->Put(MetaKey(), w.Take());
  store_->Sync();
}

void DagCommitter::Recover() {
  if (store_ == nullptr) {
    return;
  }
  const Round gc_round = dag().gc_round();
  store_->ForEach([&](const Digest&, const Bytes& value) {
    if (value.empty()) {
      return;
    }
    Reader r(value.data() + 1, value.size() - 1);
    switch (value[0]) {
      case 'T': {
        Round round = static_cast<Round>(r.GetU64());
        Digest digest = r.GetArray<32>();
        if (!r.ok() || round < gc_round) {
          break;
        }
        if (committed_.insert(digest).second) {
          committed_by_round_[round].push_back(digest);
          ++committed_count_;
        }
        break;
      }
      case 'U':
        last_committed_wave_ = r.GetU64();
        DecodeMeta(r);
        break;
      default:
        break;
    }
  });
  last_skip_counted_ = last_committed_wave_;
  // Refresh the primary's commit bookkeeping (committed batches, own-header
  // re-injection) for committed headers the recovered DAG still holds; the
  // crash-restart must not cause committed payload to be re-injected.
  for (const Digest& digest : committed_) {
    auto header = dag().GetHeader(digest);
    if (header != nullptr) {
      primary_->NotifyCommitted(*header);
    }
  }
}

// ---------------------------------------------------------------- rule helpers

const Certificate* DagCommitter::LeaderCert(uint64_t wave) const {
  return dag().GetCert(LeaderRound(wave), LeaderOf(wave));
}

uint32_t DagCommitter::DirectSupport(Round round, const Certificate& leader) const {
  const Dag& d = dag();
  uint32_t votes = 0;
  for (const auto& [author, cert] : d.CertsAt(round)) {
    auto header = d.GetHeader(cert.header_digest);
    if (header == nullptr) {
      continue;  // Unknown edges can only undercount; sync will re-trigger.
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == leader.header_digest) {
        ++votes;
        break;
      }
    }
  }
  return votes;
}

bool DagCommitter::HasQuorumAt(Round round) const {
  return dag().CertCountAt(round) >= committee_.quorum_threshold();
}

// ---------------------------------------------------------------- commit loop

void DagCommitter::TryCommit() {
  // Interpret waves in order, up to the highest one whose decision round
  // could exist in the local DAG.
  const Round top = dag().HighestRound();
  for (uint64_t wave = last_committed_wave_ + 1; DecisionRound(wave) <= top; ++wave) {
    if (!WaveReady(wave)) {
      // Stop at the first unready wave: headers of later rounds embed the
      // certificates that fill earlier rounds, so it completes before long.
      break;
    }
    const Certificate* leader = LeaderCert(wave);
    if (leader == nullptr || IsCommitted(leader->header_digest)) {
      continue;  // No leader block in our view: wave yields nothing directly.
    }
    if (!Supported(wave, *leader)) {
      if (wave > last_skip_counted_) {  // Count each wave's skip once.
        ++skipped_leaders_;
        last_skip_counted_ = wave;
        NT_TRACE(tracer_, IncrCounter(skipped_counter_));
      }
      continue;  // Insufficient support; a later wave may order it by path.
    }
    if (!CommitChain(wave, *leader)) {
      break;  // Deferred on missing headers; retried via OnHeaderStored.
    }
  }
}

bool DagCommitter::CommitChain(uint64_t wave, const Certificate& leader) {
  const Dag& d = dag();

  // Ensure the leader's entire causal history is locally complete before
  // deciding anything: HasPath below must not mistake a missing header for a
  // missing path, or we could skip a leader another validator committed
  // (the paper's "conservative synchronization").
  {
    Dag::History full = d.CollectCausalHistory(leader.header_digest, committed_);
    if (!full.missing.empty()) {
      for (const Digest& missing : full.missing) {
        primary_->SyncHeader(missing);
      }
      return false;
    }
  }

  // Walk back through skipped waves: order any earlier leader that the
  // current candidate can reach (it may have been committed by others). Every
  // leader lookup in this event sees the rule's pre-event state; SettleWaves
  // runs only after delivery.
  std::vector<const Certificate*> chain{&leader};
  const Certificate* candidate = &leader;
  for (uint64_t i = wave - 1; i > last_committed_wave_ && i > 0; --i) {
    const Certificate* li = LeaderCert(i);
    if (li == nullptr || IsCommitted(li->header_digest)) {
      continue;
    }
    if (d.HasPath(candidate->header_digest, li->header_digest)) {
      chain.push_back(li);
      candidate = li;
    }
  }
  std::reverse(chain.begin(), chain.end());

  // First pass: ensure every history is locally complete; request any gaps
  // and defer.
  std::set<Digest, DigestLess> virtual_committed = committed_;
  std::vector<std::pair<const Certificate*, Dag::History>> histories;
  for (const Certificate* lead : chain) {
    Dag::History history = d.CollectCausalHistory(lead->header_digest, virtual_committed);
    if (!history.missing.empty()) {
      for (const Digest& missing : history.missing) {
        primary_->SyncHeader(missing);
      }
      return false;
    }
    for (const Digest& digest : history.ordered) {
      virtual_committed.insert(digest);
    }
    histories.emplace_back(lead, std::move(history));
  }

  // Second pass: deliver.
  const Round decision_round = DecisionRound(wave);
  for (auto& [lead, history] : histories) {
    for (const Digest& digest : history.ordered) {
      auto header = d.GetHeader(digest);
      // Write-ahead: the commit record is durable before any hook (metrics,
      // executor, checker) observes the delivery.
      PersistCommit(digest, header->round);
      committed_.insert(digest);
      committed_by_round_[header->round].push_back(digest);
      ++committed_count_;
      primary_->NotifyCommitted(*header);
      if (!on_commit_hooks_.empty()) {
        Committed out;
        out.digest = digest;
        out.header = header;
        out.wave = wave;
        out.leader_round = lead->round;
        out.decision_round = decision_round;
        for (const auto& hook : on_commit_hooks_) {
          hook(out);
        }
      }
    }
  }
  SettleWaves(last_committed_wave_, wave);
  last_committed_wave_ = wave;
  PersistMeta();
  NT_TRACE(tracer_, IncrCounter(waves_counter_));

  // Advance the garbage-collection horizon relative to the last committed
  // leader round (paper §3.3).
  const Round leader_round = LeaderRound(wave);
  if (CollectsGarbage() && leader_round > gc_depth_) {
    Round gc_round = leader_round - gc_depth_;
    primary_->SetGcRound(gc_round);
    PruneCommitted(gc_round);
  }
  return true;
}

void DagCommitter::PruneCommitted(Round gc_round) {
  for (auto it = committed_by_round_.begin();
       it != committed_by_round_.end() && it->first < gc_round;) {
    for (const Digest& digest : it->second) {
      committed_.erase(digest);
      if (store_ != nullptr) {
        store_->Erase(CommitKey(digest));
      }
    }
    it = committed_by_round_.erase(it);
  }
}

}  // namespace nt
