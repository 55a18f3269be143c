#include "src/narwhal/dag.h"

#include <algorithm>
#include <deque>

#include "src/common/logging.h"

namespace nt {

bool Dag::AddCertificate(CertPtr cert) {
  if (cert->round < gc_round_) {
    return true;  // Below the GC horizon; ignore silently (paper §3.3).
  }
  auto& round_map = by_round_[cert->round];
  auto it = round_map.find(cert->author);
  if (it != round_map.end()) {
    if (it->second->header_digest != cert->header_digest) {
      // Two certificates for the same (round, author) require honest voters
      // to have double-signed — impossible under f < n/3. Only the first is
      // logged: a broken quorum rule repeats it on every delivery.
      if (!conflict_logged_) {
        conflict_logged_ = true;
        LOG_ERROR() << "conflicting certificates for round " << cert->round << " author "
                    << cert->author << " (later conflicts in this DAG are not logged)";
      }
      return false;
    }
    return true;  // Duplicate.
  }
  const Certificate& stored = *cert;
  by_digest_.emplace(stored.header_digest, cert);
  round_map.emplace(stored.author, std::move(cert));
  if (const BlockHeader* header = FindHeader(stored.header_digest)) {
    CountCitations(*header);
  }
  return true;
}

void Dag::AddHeader(std::shared_ptr<const BlockHeader> header, const Digest& digest) {
  if (header->round < gc_round_) {
    return;
  }
  const BlockHeader& stored = *header;
  if (headers_.emplace(digest, std::move(header)).second && by_digest_.contains(digest)) {
    CountCitations(stored);
  }
}

namespace {
// Calls fn(digest) once per distinct parent of `header` one round below it:
// the edges a leader's direct support counts.
template <typename Fn>
void ForEachCitedParent(const BlockHeader& header, Fn fn) {
  const std::vector<Certificate>& parents = header.parents;
  for (size_t i = 0; i < parents.size(); ++i) {
    if (parents[i].round + 1 != header.round) {
      continue;
    }
    bool repeated = false;
    for (size_t j = 0; j < i && !repeated; ++j) {
      repeated = parents[j].header_digest == parents[i].header_digest;
    }
    if (!repeated) {
      fn(parents[i].header_digest);
    }
  }
}
}  // namespace

void Dag::CountCitations(const BlockHeader& header) {
  if (header.round <= gc_round_) {
    return;  // Its parents are below the horizon: never a leader again.
  }
  ForEachCitedParent(header, [this](const Digest& parent) { ++citers_[parent]; });
}

const Certificate* Dag::GetCert(Round round, ValidatorId author) const {
  auto rit = by_round_.find(round);
  if (rit == by_round_.end()) {
    return nullptr;
  }
  auto ait = rit->second.find(author);
  return ait == rit->second.end() ? nullptr : ait->second.get();
}

const std::map<ValidatorId, CertPtr>& Dag::CertsAt(Round round) const {
  static const std::map<ValidatorId, CertPtr> kEmpty;
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
    for (auto& [author, cert] : it->second) {
      Collected record;
      record.digest = cert->header_digest;
      if (std::shared_ptr<const BlockHeader>* header = headers_.find(record.digest)) {
        record.header = std::move(*header);
        headers_.erase(record.digest);
        ForEachCitedParent(*record.header,
                           [this](const Digest& parent) { citers_.erase(parent); });
      }
      by_digest_.erase(record.digest);
      citers_.erase(record.digest);
      record.cert = std::move(cert);
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
  const Certificate* target = GetCertByDigest(to);
  if (target == nullptr) {
    return false;
  }
  const Round target_round = target->round;

  std::deque<Digest> frontier{from};
  DigestSet visited;
  visited.insert(from);
  while (!frontier.empty()) {
    const BlockHeader* header = FindHeader(frontier.front());
    frontier.pop_front();
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
      if (visited.insert(parent.header_digest)) {
        frontier.push_back(parent.header_digest);
      }
    }
  }
  return false;
}

Dag::History Dag::CollectCausalHistory(const Digest& anchor, const DigestSet& committed) const {
  History result;
  if (committed.contains(anchor)) {
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
  DigestSet visited;
  visited.insert(anchor);
  while (!frontier.empty()) {
    Digest current = frontier.front();
    frontier.pop_front();
    const Certificate* cert = GetCertByDigest(current);
    const BlockHeader* header = cert == nullptr ? nullptr : FindHeader(current);
    if (header == nullptr) {
      // Certificate (transiently, for parents) or header unknown; the header
      // sync will bring it in.
      result.missing.push_back(current);
      continue;
    }
    gathered.push_back({cert->round, cert->author, current});
    for (const Certificate& parent : header->parents) {
      // Most parents were reached already through a sibling: test the walk's
      // own set before the (larger) committed set.
      if (parent.round < gc_round_ || !visited.insert(parent.header_digest) ||
          committed.contains(parent.header_digest)) {
        continue;
      }
      frontier.push_back(parent.header_digest);
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
