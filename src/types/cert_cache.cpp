#include "src/types/cert_cache.h"

#include <iterator>

namespace nt {

VerifiedCertCache::VerifiedCertCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

VerifiedCertCache::LruList::iterator VerifiedCertCache::Find(const Claim& claim) {
  const LruList::iterator* head = index_.find(Key{claim.kind, claim.round, claim.subject});
  for (auto it = head == nullptr ? lru_.end() : *head; it != lru_.end(); it = it->next_binding) {
    if (it->Binds(claim)) {
      return it;
    }
  }
  return lru_.end();
}

void VerifiedCertCache::Unindex(LruList::iterator entry) {
  LruList::iterator* head = index_.find(entry->key);
  if (*head == entry) {
    if (entry->next_binding == lru_.end()) {
      index_.erase(entry->key);
    } else {
      *head = entry->next_binding;
    }
    return;
  }
  auto prev = *head;
  while (prev->next_binding != entry) {
    prev = prev->next_binding;
  }
  prev->next_binding = entry->next_binding;
}

void VerifiedCertCache::EvictOldest() {
  auto entry = std::prev(lru_.end());
  Unindex(entry);
  auto bucket = by_round_.find(entry->key.round);
  std::erase(bucket->second, entry);
  if (bucket->second.empty()) {
    by_round_.erase(bucket);
  }
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
  const Key key{claim.kind, claim.round, claim.subject};
  lru_.push_front(Entry{key, lru_.end(), claim.author, claim.committee, claim.votes});
  auto [head, inserted] = index_.emplace(key, lru_.begin());
  if (!inserted) {
    lru_.front().next_binding = *head;
    *head = lru_.begin();
  }
  by_round_[claim.round].push_back(lru_.begin());
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    EvictOldest();
    ++stats_.lru_evictions;
  }
}

void VerifiedCertCache::OnGcRound(uint64_t gc_round) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gc_round <= gc_round_) {
    return;
  }
  gc_round_ = gc_round;
  for (auto bucket = by_round_.begin(); bucket != by_round_.end() && bucket->first < gc_round_;
       bucket = by_round_.erase(bucket)) {
    for (LruList::iterator entry : bucket->second) {
      Unindex(entry);
      lru_.erase(entry);
      ++stats_.gc_evictions;
    }
  }
}

size_t VerifiedCertCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
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
  by_round_.clear();
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
