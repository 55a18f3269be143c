#include "src/narwhal/dag.h"

#include <algorithm>
#include <deque>

#include "src/common/logging.h"

namespace nt {

bool Dag::AddCertificate(const Certificate& cert) {
  if (cert.round < gc_round_) {
    return true;  // Below the GC horizon; ignore silently (paper §3.3).
  }
  auto& round_map = by_round_[cert.round];
  auto it = round_map.find(cert.author);
  if (it != round_map.end()) {
    if (it->second.header_digest != cert.header_digest) {
      // Two certificates for the same (round, author) require honest voters
      // to have double-signed — impossible under f < n/3.
      LOG_ERROR() << "conflicting certificates for round " << cert.round << " author "
                  << cert.author;
      return false;
    }
    return true;  // Duplicate.
  }
  round_map.emplace(cert.author, cert);
  by_digest_[cert.header_digest] = {cert.round, cert.author};
  return true;
}

void Dag::AddHeader(std::shared_ptr<const BlockHeader> header, const Digest& digest) {
  if (header->round < gc_round_) {
    return;
  }
  headers_.emplace(digest, std::move(header));
}

const Certificate* Dag::GetCert(Round round, ValidatorId author) const {
  auto rit = by_round_.find(round);
  if (rit == by_round_.end()) {
    return nullptr;
  }
  auto ait = rit->second.find(author);
  return ait == rit->second.end() ? nullptr : &ait->second;
}

const Certificate* Dag::GetCertByDigest(const Digest& header_digest) const {
  auto it = by_digest_.find(header_digest);
  if (it == by_digest_.end()) {
    return nullptr;
  }
  return GetCert(it->second.first, it->second.second);
}

std::shared_ptr<const BlockHeader> Dag::GetHeader(const Digest& header_digest) const {
  auto it = headers_.find(header_digest);
  return it == headers_.end() ? nullptr : it->second;
}

const std::map<ValidatorId, Certificate>& Dag::CertsAt(Round round) const {
  static const std::map<ValidatorId, Certificate> kEmpty;
  auto it = by_round_.find(round);
  return it == by_round_.end() ? kEmpty : it->second;
}

std::vector<Dag::Collected> Dag::GarbageCollect(Round new_gc_round) {
  std::vector<Collected> collected;
  if (new_gc_round <= gc_round_) {
    return collected;
  }
  gc_round_ = new_gc_round;
  for (auto it = by_round_.begin(); it != by_round_.end() && it->first < gc_round_;) {
    for (const auto& [author, cert] : it->second) {
      Collected record;
      record.digest = cert.header_digest;
      record.cert = cert;
      auto header_it = headers_.find(cert.header_digest);
      if (header_it != headers_.end()) {
        record.header = std::move(header_it->second);
        headers_.erase(header_it);
      }
      by_digest_.erase(cert.header_digest);
      collected.push_back(std::move(record));
    }
    it = by_round_.erase(it);
  }
  return collected;
}

bool Dag::HasPath(const Digest& from, const Digest& to) const {
  if (from == to) {
    return true;
  }
  auto target = by_digest_.find(to);
  if (target == by_digest_.end()) {
    return false;
  }
  const Round target_round = target->second.first;

  std::deque<Digest> frontier{from};
  std::set<Digest, DigestLess> visited{from};
  while (!frontier.empty()) {
    Digest current = frontier.front();
    frontier.pop_front();
    auto header = GetHeader(current);
    if (header == nullptr) {
      continue;  // Edge unknown without the header.
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == to) {
        return true;
      }
      if (parent.round <= target_round || parent.round < gc_round_) {
        continue;  // Can't reach `to` from at-or-below its round.
      }
      if (visited.insert(parent.header_digest).second) {
        frontier.push_back(parent.header_digest);
      }
    }
  }
  return false;
}

Dag::History Dag::CollectCausalHistory(const Digest& anchor,
                                       const std::set<Digest, DigestLess>& committed) const {
  History result;
  if (committed.count(anchor) != 0) {
    return result;
  }
  // BFS over parent edges; gather every uncommitted vertex above the GC
  // horizon, then sort deterministically.
  struct Entry {
    Round round;
    ValidatorId author;
    Digest digest;
  };
  std::vector<Entry> gathered;
  std::deque<Digest> frontier{anchor};
  std::set<Digest, DigestLess> visited{anchor};
  while (!frontier.empty()) {
    Digest current = frontier.front();
    frontier.pop_front();
    auto meta = by_digest_.find(current);
    if (meta == by_digest_.end()) {
      // Certificate itself unknown (can happen transiently for parents); the
      // header sync will bring it in.
      result.missing.push_back(current);
      continue;
    }
    auto header = GetHeader(current);
    if (header == nullptr) {
      result.missing.push_back(current);
      continue;
    }
    gathered.push_back({meta->second.first, meta->second.second, current});
    for (const Certificate& parent : header->parents) {
      if (parent.round < gc_round_ || committed.count(parent.header_digest) != 0) {
        continue;
      }
      if (visited.insert(parent.header_digest).second) {
        frontier.push_back(parent.header_digest);
      }
    }
  }
  if (!result.missing.empty()) {
    return result;
  }
  // Deterministic order: by (round, author); the anchor has the highest
  // round in its own history, and ties on (round, author) cannot occur for
  // distinct certified blocks.
  std::sort(gathered.begin(), gathered.end(), [](const Entry& a, const Entry& b) {
    if (a.round != b.round) {
      return a.round < b.round;
    }
    return a.author < b.author;
  });
  // Move the anchor to the very end if it shares its round with others.
  result.ordered.reserve(gathered.size());
  for (const Entry& e : gathered) {
    if (e.digest != anchor) {
      result.ordered.push_back(e.digest);
    }
  }
  result.ordered.push_back(anchor);
  return result;
}

}  // namespace nt
