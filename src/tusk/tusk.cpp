#include "src/tusk/tusk.h"

#include "src/common/seeded_bugs.h"

namespace nt {

Tusk::Tusk(Primary* primary, const Committee& committee, const ThresholdCoin* coin,
           Round gc_depth)
    : DagCommitter(primary, committee, gc_depth, "tusk/skipped_leaders", "tusk/committed_waves"),
      coin_(coin) {}

ValidatorId Tusk::LeaderOf(uint64_t wave) const {
  return coin_->LeaderOf(wave, committee().size());
}

bool Tusk::Supported(uint64_t /*wave*/, const Certificate& leader) const {
  // Seeded mutation: skip the paper's §5 f+1 second-round support check and
  // commit every elected leader present in the local view — validators with
  // different views then commit different leader chains (detected by the DST
  // harness's prefix-consistency and oracle invariants).
  if (seeded_bugs::On(SeededBug::kSkipTuskSupport)) {
    return true;
  }
  return DirectSupport(leader) >= committee().validity_threshold();
}

}  // namespace nt
