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

AnchorScheduleState AnchorSchedule::Snapshot() const {
  AnchorScheduleState state{settled_through_, {}};
  state.outcomes.reserve(last_outcome_.size());
  for (const auto& [author, entry] : last_outcome_) {
    state.outcomes.push_back({author, entry.first, entry.second});
  }
  return state;
}

void AnchorSchedule::Restore(const AnchorScheduleState& state) {
  settled_through_ = state.settled_through;
  last_outcome_.clear();
  for (const AnchorOutcome& o : state.outcomes) {
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

void Bullshark::EncodeMeta(Writer& w) const { EncodeWire(w, schedule_.Snapshot()); }

void Bullshark::DecodeMeta(Reader& r) {
  if (std::optional<AnchorScheduleState> state = DecodeWhole<AnchorScheduleState>(r)) {
    schedule_.Restore(*state);
  }
}

}  // namespace nt
