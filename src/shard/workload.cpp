#include "src/shard/workload.h"

#include <algorithm>
#include <cmath>

namespace nt {

TransferWorkload::TransferWorkload(TransferWorkloadConfig config) : config_(config) {
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
  if (config_.accounts_per_shard < 2) {
    config_.accounts_per_shard = 2;  // A transfer needs two distinct accounts.
  }
  accounts_.resize(config_.num_shards);
  for (ShardId s = 0; s < config_.num_shards; ++s) {
    accounts_[s].reserve(config_.accounts_per_shard);
    for (uint32_t i = 0; i < config_.accounts_per_shard; ++i) {
      accounts_[s].push_back(ShardRouter::MineAccount(
          "acct-s" + std::to_string(s) + "-" + std::to_string(i), s, config_.num_shards));
    }
  }
  cdf_.reserve(config_.accounts_per_shard);
  double total = 0;
  for (uint32_t i = 0; i < config_.accounts_per_shard; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), config_.zipf_theta);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

std::vector<Bytes> TransferWorkload::InitialMints() const {
  std::vector<Bytes> mints;
  mints.reserve(static_cast<size_t>(config_.num_shards) * config_.accounts_per_shard);
  for (const std::vector<std::string>& lane : accounts_) {
    for (const std::string& name : lane) {
      mints.push_back(ExecTx::Mint(name, config_.initial_balance).Encode());
    }
  }
  return mints;
}

uint32_t TransferWorkload::PickIndex(Rng& rng) const {
  if (config_.hot_ratio > 0 && rng.NextDouble() < config_.hot_ratio) {
    return 0;  // The lane's hottest account.
  }
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return config_.accounts_per_shard - 1;
  }
  return static_cast<uint32_t>(it - cdf_.begin());
}

Bytes TransferWorkload::NextTransfer(Rng& rng, uint64_t nonce) const {
  bool cross = config_.num_shards > 1 && config_.cross_ratio > 0 &&
               rng.NextDouble() < config_.cross_ratio;
  ShardId src = static_cast<ShardId>(rng.NextBelow(config_.num_shards));
  ShardId dst = src;
  if (cross) {
    dst = static_cast<ShardId>((src + 1 + rng.NextBelow(config_.num_shards - 1)) %
                               config_.num_shards);
  }
  uint32_t from = PickIndex(rng);
  uint32_t to = PickIndex(rng);
  if (dst == src && to == from) {
    // Self-transfers are semantically valid but tell the invariants nothing;
    // shift to the next account in the lane.
    to = (to + 1) % config_.accounts_per_shard;
  }
  return ExecTx::EncodeTransfer(accounts_[src][from], accounts_[dst][to], config_.amount, nonce);
}

}  // namespace nt
