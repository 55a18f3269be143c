#include "src/types/cert_cache.h"

#include <iterator>

namespace nt {

VerifiedCertCache::VerifiedCertCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

VerifiedCertCache::LruList::iterator VerifiedCertCache::Find(const Claim& claim) {
  auto [it, end] = index_.equal_range(Key{claim.kind, claim.round, claim.subject});
  for (; it != end; ++it) {
    if (it->second->Binds(claim)) {
      return it->second;
    }
  }
  return lru_.end();
}

void VerifiedCertCache::Erase(LruList::iterator entry) {
  index_.erase(entry->slot);
  lru_.erase(entry);
}

bool VerifiedCertCache::Lookup(const Claim& claim) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = Find(claim);
  if (entry == lru_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry);
  ++stats_.hits;
  return true;
}

void VerifiedCertCache::Insert(const Claim& claim) {
  std::lock_guard<std::mutex> lock(mu_);
  if (claim.round < gc_round_) {
    return;  // Below the horizon: would be evicted immediately.
  }
  auto entry = Find(claim);
  if (entry != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, entry);
    return;
  }
  lru_.push_front(Entry{{}, claim.author, claim.committee, claim.votes});
  lru_.front().slot = index_.emplace(Key{claim.kind, claim.round, claim.subject}, lru_.begin());
  ++stats_.insertions;
  while (index_.size() > capacity_) {
    Erase(std::prev(lru_.end()));
    ++stats_.lru_evictions;
  }
}

void VerifiedCertCache::OnGcRound(uint64_t gc_round) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gc_round <= gc_round_) {
    return;
  }
  gc_round_ = gc_round;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->slot->first.round < gc_round_) {
      Erase(it);
      ++stats_.gc_evictions;
    }
    it = next;
  }
}

size_t VerifiedCertCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

VerifiedCertCache::Stats VerifiedCertCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void VerifiedCertCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

void VerifiedCertCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
  gc_round_ = 0;
}

VerifiedCertCache& VerifiedCertCache::Narwhal() {
  static VerifiedCertCache cache;
  return cache;
}

VerifiedCertCache& VerifiedCertCache::HotStuff() {
  static VerifiedCertCache cache;
  return cache;
}

VerifiedCertCache::Stats VerifiedCertCache::Combined() {
  Stats a = Narwhal().stats();
  Stats b = HotStuff().stats();
  Stats out;
  out.hits = a.hits + b.hits;
  out.misses = a.misses + b.misses;
  out.insertions = a.insertions + b.insertions;
  out.lru_evictions = a.lru_evictions + b.lru_evictions;
  out.gc_evictions = a.gc_evictions + b.gc_evictions;
  return out;
}

}  // namespace nt
