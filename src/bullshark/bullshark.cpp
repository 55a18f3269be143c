#include "src/bullshark/bullshark.h"

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
    : DagCommitter(primary, committee, gc_depth, "bullshark/skipped_anchors",
                   "bullshark/committed_waves"),
      config_(config),
      schedule_(committee.size(), config) {}

bool Bullshark::Supported(uint64_t /*wave*/, const Certificate& anchor) const {
  const uint32_t votes = DirectSupport(anchor);
  if (seeded_bugs::On(SeededBug::kSkipBullsharkSupport)) {
    // Seeded mutation: commit on f support votes instead of the paper's f+1.
    // One vote short of the validity threshold voids quorum intersection —
    // the f supporters may all be invisible to the 2f+1 parents of a later
    // round, so other validators neither direct-commit the anchor nor reach
    // it by path, and committed sequences fork (caught by the DST harness's
    // prefix-consistency / oracle-agreement invariants).
    return votes >= committee().f();
  }
  return votes >= committee().validity_threshold();
}

void Bullshark::SettleWaves(uint64_t from, uint64_t through) {
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
    const Certificate* cert = dag().GetCert(WaveAnchorRound(i), author);
    bool ordered = cert != nullptr && IsCommitted(cert->header_digest);
    schedule_.RecordOutcome(i, author, ordered);
  }
}

void Bullshark::EncodeMeta(Writer& w) const {
  w.PutU64(schedule_.settled_through());
  std::vector<AnchorOutcome> outcomes = schedule_.Snapshot();
  w.PutU32(static_cast<uint32_t>(outcomes.size()));
  for (const AnchorOutcome& o : outcomes) {
    w.PutU32(o.author);
    w.PutU64(o.wave);
    w.PutBool(o.committed);
  }
}

void Bullshark::DecodeMeta(Reader& r) {
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
}

}  // namespace nt
