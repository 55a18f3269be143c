#include "src/tusk/tusk.h"

#include <algorithm>
#include <string_view>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/common/seeded_bugs.h"

namespace nt {

Tusk::Tusk(Primary* primary, const Committee& committee, const ThresholdCoin* coin,
           Round gc_depth)
    : primary_(primary), committee_(committee), coin_(coin), gc_depth_(gc_depth) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

void Tusk::OnCertificate(const Certificate&) { TryCommit(); }

void Tusk::OnHeaderStored(const Digest&) { TryCommit(); }

// ---------------------------------------------------------------- persistence

namespace {
// Consensus-store records: 'T' commit entries (one per delivered header),
// 'U' meta (wave cursor). The store is shared with other consensus
// interpreters, so tags stay globally unique.
Digest TuskCommitKey(const Digest& digest) {
  Writer w;
  w.PutU8('T');
  w.PutRaw(digest);
  return Sha256::Hash(w.bytes().data(), w.size());
}
Digest TuskMetaKey() { return Sha256::Hash(std::string_view("tusk/meta")); }
}  // namespace

void Tusk::PersistCommit(const Digest& digest, Round round) {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('T');
  w.PutU64(round);
  w.PutRaw(digest);
  store_->Put(TuskCommitKey(digest), w.Take());
}

void Tusk::PersistMeta() {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('U');
  w.PutU64(last_committed_wave_);
  store_->Put(TuskMetaKey(), w.Take());
  store_->Sync();
}

void Tusk::Recover() {
  if (store_ == nullptr) {
    return;
  }
  const Round gc_round = primary_->dag().gc_round();
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
    auto header = primary_->dag().GetHeader(digest);
    if (header != nullptr) {
      primary_->NotifyCommitted(*header);
    }
  }
}

bool Tusk::WaveComplete(uint64_t wave) const {
  // The coin for wave w is revealed once the third round is populated by a
  // quorum in the local view.
  return primary_->dag().CertCountAt(WaveThirdRound(wave)) >= committee_.quorum_threshold();
}

const Certificate* Tusk::LeaderCert(uint64_t wave) const {
  ValidatorId leader = coin_->LeaderOf(wave, committee_.size());
  return primary_->dag().GetCert(WaveFirstRound(wave), leader);
}

bool Tusk::CommitRuleSatisfied(uint64_t wave, const Certificate& leader) const {
  // Seeded mutation: skip the paper's §5 f+1 second-round support check and
  // commit every elected leader present in the local view — validators with
  // different views then commit different leader chains (detected by the DST
  // harness's prefix-consistency and oracle invariants).
  if (seeded_bugs::skip_tusk_support) {
    return true;
  }
  const Dag& dag = primary_->dag();
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(WaveSecondRound(wave))) {
    auto header = dag.GetHeader(cert.header_digest);
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
  return votes >= committee_.validity_threshold();
}

void Tusk::TryCommit() {
  const Dag& dag = primary_->dag();
  // Highest wave whose third round could exist in the DAG.
  Round top = dag.HighestRound();
  if (top < 3) {
    return;
  }
  uint64_t max_wave = (top - 1) / 2;
  for (uint64_t wave = last_committed_wave_ + 1; wave <= max_wave; ++wave) {
    if (!WaveComplete(wave)) {
      // Stop at the first incomplete wave: waves must be interpreted in
      // order, and headers of later rounds embed the certificates that fill
      // earlier rounds, so this wave completes before long.
      break;
    }
    const Certificate* leader = LeaderCert(wave);
    if (leader == nullptr || committed_.count(leader->header_digest) != 0) {
      continue;  // No leader block in our view: wave yields nothing directly.
    }
    if (!CommitRuleSatisfied(wave, *leader)) {
      if (wave > last_skip_counted_) {  // Count each wave's skip once.
        ++skipped_leaders_;
        last_skip_counted_ = wave;
        NT_TRACE(tracer_, IncrCounter("tusk/skipped_leaders"));
      }
      continue;  // Insufficient support; a later wave may order it by path.
    }
    if (!CommitChain(wave, *leader)) {
      break;  // Deferred on missing headers; retried via OnHeaderStored.
    }
  }
}

bool Tusk::CommitChain(uint64_t wave, const Certificate& leader) {
  const Dag& dag = primary_->dag();

  // Ensure the anchor's entire causal history is locally complete before
  // deciding anything: HasPath below must not mistake a missing header for a
  // missing path, or we could skip a leader another validator committed
  // (the paper's "conservative synchronization").
  {
    Dag::History full = dag.CollectCausalHistory(leader.header_digest, committed_);
    if (!full.missing.empty()) {
      for (const Digest& missing : full.missing) {
        primary_->SyncHeader(missing);
      }
      return false;
    }
  }

  // Walk back through skipped waves: order any earlier leader that the
  // current candidate can reach (it may have been committed by others).
  std::vector<const Certificate*> chain{&leader};
  const Certificate* candidate = &leader;
  for (uint64_t i = wave - 1; i > last_committed_wave_ && i > 0; --i) {
    const Certificate* li = LeaderCert(i);
    if (li == nullptr || committed_.count(li->header_digest) != 0) {
      continue;
    }
    if (dag.HasPath(candidate->header_digest, li->header_digest)) {
      chain.push_back(li);
      candidate = li;
    }
  }
  std::reverse(chain.begin(), chain.end());

  // First pass: ensure every history is locally complete; request any gaps
  // and defer (the paper's "conservative synchronization").
  std::set<Digest, DigestLess> virtual_committed = committed_;
  std::vector<std::pair<const Certificate*, Dag::History>> histories;
  for (const Certificate* lead : chain) {
    Dag::History history = dag.CollectCausalHistory(lead->header_digest, virtual_committed);
    if (!history.missing.empty()) {
      for (const Digest& missing : history.missing) {
        primary_->SyncHeader(missing);
      }
      return false;
    }
    for (const Digest& d : history.ordered) {
      virtual_committed.insert(d);
    }
    histories.emplace_back(lead, std::move(history));
  }

  // Second pass: deliver.
  for (auto& [lead, history] : histories) {
    for (const Digest& digest : history.ordered) {
      auto header = dag.GetHeader(digest);
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
        for (const auto& hook : on_commit_hooks_) {
          hook(out);
        }
      }
    }
  }
  last_committed_wave_ = wave;
  PersistMeta();
  NT_TRACE(tracer_, IncrCounter("tusk/committed_waves"));

  // Advance the garbage-collection horizon relative to the last committed
  // leader round (paper §3.3).
  Round leader_round = WaveFirstRound(wave);
  if (leader_round > gc_depth_) {
    Round gc_round = leader_round - gc_depth_;
    primary_->SetGcRound(gc_round);
    PruneCommitted(gc_round);
  }
  return true;
}

void Tusk::PruneCommitted(Round gc_round) {
  for (auto it = committed_by_round_.begin();
       it != committed_by_round_.end() && it->first < gc_round;) {
    for (const Digest& d : it->second) {
      committed_.erase(d);
      if (store_ != nullptr) {
        store_->Erase(TuskCommitKey(d));
      }
    }
    it = committed_by_round_.erase(it);
  }
}

}  // namespace nt
