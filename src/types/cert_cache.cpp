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
  if (claim.round < gc_round_) {
    return;  // Below the horizon: would be evicted immediately.
  }
  auto entry = Find(claim);
  if (entry != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, entry);
    return;
  }
  const Key key{claim.kind, claim.round, claim.subject};
  lru_.push_front(Entry{key, lru_.end(), claim.author, claim.committee,
                        Bytes(claim.votes.begin(), claim.votes.end())});
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

}  // namespace nt
