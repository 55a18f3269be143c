#include "src/tusk/dag_committer.h"

#include <algorithm>
#include <optional>

#include "src/common/logging.h"

namespace nt {

DagCommitter::DagCommitter(Primary* primary, const Committee& committee, Round gc_depth,
                           std::string skipped_counter, std::string waves_counter)
    : primary_(primary),
      committee_(committee),
      skipped_counter_(std::move(skipped_counter)),
      waves_counter_(std::move(waves_counter)),
      commit_log_(primary, gc_depth) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

void DagCommitter::OnCertificate(const Certificate&) { TryCommit(); }

void DagCommitter::OnHeaderStored(const Digest&) { TryCommit(); }

// ---------------------------------------------------------------- persistence

void DagCommitter::PersistMeta() {
  if (store_ == nullptr) {
    return;
  }
  Writer rule_state;
  EncodeMeta(rule_state);
  PutRecord(*store_, CommitterMeta{last_committed_wave_, rule_state.Take()});
  store_->Sync();
}

void DagCommitter::Recover() {
  if (store_ == nullptr) {
    return;
  }
  std::optional<CommitterMeta> meta = GetRecord<CommitterMeta>(*store_);
  if (!meta.has_value()) {
    return;
  }
  last_committed_wave_ = meta->wave;
  Reader r(meta->rule_state);
  DecodeMeta(r);
  last_skip_counted_ = last_committed_wave_;
}

// ---------------------------------------------------------------- rule helpers

const Certificate* DagCommitter::LeaderCert(uint64_t wave) const {
  return dag().GetCert(LeaderRound(wave), LeaderOf(wave));
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
  // Ensure the leader's entire causal history is locally complete before
  // deciding anything: HasPath below must not mistake a missing header for a
  // missing path, or we could skip a leader another validator committed
  // (the paper's "conservative synchronization"). The walk is the one
  // delivered below.
  std::optional<Dag::History> history = commit_log_.CompleteHistory(leader.header_digest);
  if (!history.has_value()) {
    return false;
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
    if (dag().HasPath(candidate->header_digest, li->header_digest)) {
      chain.push_back(li);
      candidate = li;
    }
  }
  std::reverse(chain.begin(), chain.end());

  if (!commit_log_.Deliver(chain, std::move(*history), wave, DecisionRound(wave))) {
    return false;  // A history has gaps; sync requested.
  }
  SettleWaves(last_committed_wave_, wave);
  last_committed_wave_ = wave;
  PersistMeta();
  NT_TRACE(tracer_, IncrCounter(waves_counter_));

  // Advance the garbage-collection horizon relative to the last committed
  // leader round (paper §3.3).
  if (CollectsGarbage()) {
    commit_log_.AdvanceGc(LeaderRound(wave));
  }
  return true;
}

}  // namespace nt
