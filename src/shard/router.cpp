#include "src/shard/router.h"

#include "src/common/bytes.h"

namespace nt {

ShardId ShardRouter::Route(std::string_view key, uint32_t num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  return static_cast<ShardId>(Fnv1a(key) % num_shards);
}

std::string ShardRouter::MineAccount(const std::string& prefix, ShardId shard,
                                     uint32_t num_shards) {
  for (uint64_t nonce = 0;; ++nonce) {
    std::string name = prefix + "." + std::to_string(nonce);
    if (Route(name, num_shards) == shard) {
      return name;
    }
  }
}

}  // namespace nt
