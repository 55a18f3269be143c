#include "src/tusk/dag_rider.h"

namespace nt {

DagRider::DagRider(Primary* primary, const Committee& committee, const ThresholdCoin* coin)
    : DagCommitter(primary, committee, /*gc_depth=*/0, "dag_rider/skipped_leaders",
                   "dag_rider/committed_waves"),
      coin_(coin) {}

ValidatorId DagRider::LeaderOf(uint64_t wave) const {
  return coin_->LeaderOf(wave, committee().size());
}

bool DagRider::Supported(uint64_t wave, const Certificate& leader) const {
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag().CertsAt(WaveLastRound(wave))) {
    if (dag().HasPath(cert->header_digest, leader.header_digest)) {
      ++votes;
    }
  }
  return votes >= committee().quorum_threshold();
}

}  // namespace nt
