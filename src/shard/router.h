// Deterministic key-space partitioning for the sharded execution lanes: a
// key's lane is a pure function of its bytes and the lane count, so every
// validator routes every transaction identically without any coordination.
#ifndef SRC_SHARD_ROUTER_H_
#define SRC_SHARD_ROUTER_H_

#include <string>
#include <string_view>

#include "src/types/committee.h"

namespace nt {

class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards) : num_shards_(num_shards == 0 ? 1 : num_shards) {}

  uint32_t num_shards() const { return num_shards_; }

  ShardId Of(std::string_view key) const { return Route(key, num_shards_); }

  // Stable across platforms and runs: FNV-1a over the key bytes (Fnv1a,
  // also FlatTable's string hash), reduced modulo the lane count.
  static ShardId Route(std::string_view key, uint32_t num_shards);

  // Smallest-nonce account name "<prefix>.<nonce>" that routes to `shard` —
  // workload generators use this to hit an exact cross-shard ratio instead of
  // whatever ratio hashing random names happens to produce. Expected
  // `num_shards` probes.
  static std::string MineAccount(const std::string& prefix, ShardId shard, uint32_t num_shards);

 private:
  uint32_t num_shards_;
};

}  // namespace nt

#endif  // SRC_SHARD_ROUTER_H_
