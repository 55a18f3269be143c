// Tunables for the Narwhal mempool, defaulting to the paper's baseline
// experiment parameters (§7: 500KB batches, 512B transactions).
#ifndef SRC_NARWHAL_CONFIG_H_
#define SRC_NARWHAL_CONFIG_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/types/committee.h"

namespace nt {

struct NarwhalConfig {
  // Seal a worker batch once its payload reaches this size.
  uint64_t batch_size_bytes = 500 * 1000;
  // ...or when the oldest pending transaction has waited this long.
  TimeDelta max_batch_delay = Millis(100);
  // Propose a header without payload if none arrived within this delay of
  // entering a round (keeps the DAG advancing under low load).
  TimeDelta max_header_delay = Millis(100);
  // Rounds of history kept before garbage collection (relative to the last
  // committed leader round).
  Round gc_depth = 50;
  // One of every `tx_sample_rate` transactions carries a latency sample.
  uint64_t tx_sample_rate = 100;
  // Hash-based duplicate suppression for explicit-payload transactions
  // (paper §8.4: "Mir-BFT uses an interesting transaction de-duplication
  // technique based on hashing which we believe is directly applicable to
  // Narwhal"). A worker remembers the digests of the last `dedup_window`
  // transactions in a hashed set (one probe per submission, one erase of the
  // oldest digest once the window is full) and drops resubmissions.
  // 0 disables.
  uint64_t dedup_window = 100000;
};

}  // namespace nt

#endif  // SRC_NARWHAL_CONFIG_H_
