#include "src/bullshark/bullshark.h"

#include <algorithm>
#include <string_view>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/common/seeded_bugs.h"

namespace nt {

// ------------------------------------------------------------ anchor schedule

ValidatorId AnchorSchedule::AuthorOf(uint64_t wave) const {
  ValidatorId base = static_cast<ValidatorId>((wave - 1) % n_);
  if (!config_.reputation) {
    return base;
  }
  for (size_t off = 0; off < n_; ++off) {
    ValidatorId cand = static_cast<ValidatorId>((base + off) % n_);
    if (!Disfavored(cand)) {
      return cand;
    }
  }
  return base;  // Every author disfavored: degrade to plain round-robin.
}

bool AnchorSchedule::Disfavored(ValidatorId v) const {
  auto it = last_outcome_.find(v);
  if (it == last_outcome_.end() || it->second.second) {
    return false;  // Never scheduled, or most recent anchor committed.
  }
  // Skipped anchors disfavor their author for `reputation_window` settled
  // waves, after which the author is forgiven and rescheduled.
  return it->second.first + config_.reputation_window > settled_through_;
}

void AnchorSchedule::RecordOutcome(uint64_t wave, ValidatorId author, bool committed) {
  last_outcome_[author] = {wave, committed};
  settled_through_ = wave;
}

std::vector<AnchorOutcome> AnchorSchedule::Snapshot() const {
  std::vector<AnchorOutcome> out;
  out.reserve(last_outcome_.size());
  for (const auto& [author, entry] : last_outcome_) {
    AnchorOutcome o;
    o.author = author;
    o.wave = entry.first;
    o.committed = entry.second;
    out.push_back(o);
  }
  return out;
}

void AnchorSchedule::Restore(uint64_t settled_through,
                             const std::vector<AnchorOutcome>& outcomes) {
  settled_through_ = settled_through;
  last_outcome_.clear();
  for (const AnchorOutcome& o : outcomes) {
    last_outcome_[o.author] = {o.wave, o.committed};
  }
}

// ------------------------------------------------------------------ bullshark

Bullshark::Bullshark(Primary* primary, const Committee& committee, Round gc_depth,
                     BullsharkConfig config)
    : primary_(primary),
      committee_(committee),
      gc_depth_(gc_depth),
      config_(config),
      schedule_(committee.size(), config) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

void Bullshark::OnCertificate(const Certificate&) { TryCommit(); }

void Bullshark::OnHeaderStored(const Digest&) { TryCommit(); }

// ---------------------------------------------------------------- persistence

namespace {
// Consensus-store records: 'B' commit entries (one per delivered header),
// 'S' meta (wave cursor + settled anchor-schedule outcomes). The store is
// shared with other consensus interpreters (Tusk's 'T'/'U', HotStuff's
// ledger), so tags stay globally unique.
Digest BullsharkCommitKey(const Digest& digest) {
  Writer w;
  w.PutU8('B');
  w.PutRaw(digest);
  return Sha256::Hash(w.bytes().data(), w.size());
}
Digest BullsharkMetaKey() { return Sha256::Hash(std::string_view("bullshark/meta")); }
}  // namespace

void Bullshark::PersistCommit(const Digest& digest, Round round) {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('B');
  w.PutU64(round);
  w.PutRaw(digest);
  store_->Put(BullsharkCommitKey(digest), w.Take());
}

void Bullshark::PersistMeta() {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('S');
  w.PutU64(last_committed_wave_);
  // Schedule state rides in the meta record: it is bounded (one latest
  // outcome per author) and must survive restarts even with reputation off,
  // so flipping the flag on a recovered store stays well-defined.
  w.PutU64(schedule_.settled_through());
  std::vector<AnchorOutcome> outcomes = schedule_.Snapshot();
  w.PutU32(static_cast<uint32_t>(outcomes.size()));
  for (const AnchorOutcome& o : outcomes) {
    w.PutU32(o.author);
    w.PutU64(o.wave);
    w.PutBool(o.committed);
  }
  store_->Put(BullsharkMetaKey(), w.Take());
  store_->Sync();
}

void Bullshark::Recover() {
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
      case 'B': {
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
      case 'S': {
        last_committed_wave_ = r.GetU64();
        uint64_t settled_through = r.GetU64();
        uint32_t count = r.GetU32();
        std::vector<AnchorOutcome> outcomes;
        for (uint32_t i = 0; r.ok() && i < count; ++i) {
          AnchorOutcome o;
          o.author = r.GetU32();
          o.wave = r.GetU64();
          o.committed = r.GetBool();
          outcomes.push_back(o);
        }
        if (r.ok()) {
          schedule_.Restore(settled_through, outcomes);
        }
        break;
      }
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

// ---------------------------------------------------------------- commit rule

const Certificate* Bullshark::AnchorCert(uint64_t wave) const {
  return primary_->dag().GetCert(WaveAnchorRound(wave), schedule_.AuthorOf(wave));
}

bool Bullshark::CommitRuleSatisfied(uint64_t wave, const Certificate& anchor) const {
  const Dag& dag = primary_->dag();
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(WaveSupportRound(wave))) {
    auto header = dag.GetHeader(cert.header_digest);
    if (header == nullptr) {
      continue;  // Unknown edges can only undercount; sync will re-trigger.
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == anchor.header_digest) {
        ++votes;
        break;
      }
    }
  }
  if (seeded_bugs::skip_bullshark_support) {
    // Seeded mutation: commit on f support votes instead of the paper's f+1.
    // One vote short of the validity threshold voids quorum intersection —
    // the f supporters may all be invisible to the 2f+1 parents of a later
    // round, so other validators neither direct-commit the anchor nor reach
    // it by path, and committed sequences fork (caught by the DST harness's
    // prefix-consistency / oracle-agreement invariants).
    return votes >= committee_.f();
  }
  return votes >= committee_.validity_threshold();
}

void Bullshark::TryCommit() {
  const Dag& dag = primary_->dag();
  // Highest wave whose support round could exist in the DAG.
  Round top = dag.HighestRound();
  if (top < 2) {
    return;
  }
  uint64_t max_wave = top / 2;
  for (uint64_t wave = last_committed_wave_ + 1; wave <= max_wave; ++wave) {
    const Certificate* anchor = AnchorCert(wave);
    if (anchor == nullptr || committed_.count(anchor->header_digest) != 0) {
      continue;  // No anchor block in our view: wave yields nothing directly.
    }
    if (!CommitRuleSatisfied(wave, *anchor)) {
      if (wave > last_skip_counted_) {  // Count each wave's skip once.
        ++skipped_anchors_;
        last_skip_counted_ = wave;
        NT_TRACE(tracer_, IncrCounter("bullshark/skipped_anchors"));
      }
      // Unlike Tusk there is no third-round completeness gate: f+1 support
      // votes guarantee every later-round certificate reaches the anchor by
      // path, so a later wave orders this one if anyone committed it.
      continue;
    }
    if (!CommitChain(wave, *anchor)) {
      break;  // Deferred on missing headers; retried via OnHeaderStored.
    }
  }
}

bool Bullshark::CommitChain(uint64_t wave, const Certificate& anchor) {
  const Dag& dag = primary_->dag();

  // Ensure the anchor's entire causal history is locally complete before
  // deciding anything: HasPath below must not mistake a missing header for a
  // missing path, or we could skip an anchor another validator committed
  // (the paper's "conservative synchronization").
  {
    Dag::History full = dag.CollectCausalHistory(anchor.header_digest, committed_);
    if (!full.missing.empty()) {
      for (const Digest& missing : full.missing) {
        primary_->SyncHeader(missing);
      }
      return false;
    }
  }

  // Walk back through skipped waves: order any earlier anchor that the
  // current candidate can reach (it may have been committed by others). All
  // author lookups in this event use the pre-event schedule state; outcomes
  // are settled only after delivery succeeds (see AnchorSchedule contract).
  std::vector<const Certificate*> chain{&anchor};
  const Certificate* candidate = &anchor;
  for (uint64_t i = wave - 1; i > last_committed_wave_ && i > 0; --i) {
    const Certificate* ai = AnchorCert(i);
    if (ai == nullptr || committed_.count(ai->header_digest) != 0) {
      continue;
    }
    if (dag.HasPath(candidate->header_digest, ai->header_digest)) {
      chain.push_back(ai);
      candidate = ai;
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
        out.anchor_round = lead->round;
        out.decision_round = WaveSupportRound(wave);
        for (const auto& hook : on_commit_hooks_) {
          hook(out);
        }
      }
    }
  }
  SettleOutcomes(last_committed_wave_, wave);
  last_committed_wave_ = wave;
  PersistMeta();
  NT_TRACE(tracer_, IncrCounter("bullshark/committed_waves"));

  // Advance the garbage-collection horizon relative to the last committed
  // anchor round (paper §3.3).
  Round anchor_round = WaveAnchorRound(wave);
  if (anchor_round > gc_depth_) {
    Round gc_round = anchor_round - gc_depth_;
    primary_->SetGcRound(gc_round);
    PruneCommitted(gc_round);
  }
  return true;
}

void Bullshark::SettleOutcomes(uint64_t from, uint64_t through) {
  const Dag& dag = primary_->dag();
  // Resolve every author with the pre-event schedule state first: the fold
  // must see the same authors the commit walk saw, and RecordOutcome below
  // mutates the state as it advances.
  std::vector<ValidatorId> authors;
  authors.reserve(static_cast<size_t>(through - from));
  for (uint64_t i = from + 1; i <= through; ++i) {
    authors.push_back(schedule_.AuthorOf(i));
  }
  for (uint64_t i = from + 1; i <= through; ++i) {
    ValidatorId author = authors[static_cast<size_t>(i - from - 1)];
    const Certificate* cert = dag.GetCert(WaveAnchorRound(i), author);
    bool ordered = cert != nullptr && committed_.count(cert->header_digest) != 0;
    schedule_.RecordOutcome(i, author, ordered);
  }
}

void Bullshark::PruneCommitted(Round gc_round) {
  for (auto it = committed_by_round_.begin();
       it != committed_by_round_.end() && it->first < gc_round;) {
    for (const Digest& d : it->second) {
      committed_.erase(d);
      if (store_ != nullptr) {
        store_->Erase(BullsharkCommitKey(d));
      }
    }
    it = committed_by_round_.erase(it);
  }
}

}  // namespace nt
