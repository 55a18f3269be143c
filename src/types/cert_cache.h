// Per-validator cache of certificates whose signature sets have already been
// verified. Quorum certificates are re-delivered constantly, and each
// delivery used to re-verify 2f+1 signatures. Caching the verdict makes
// every route after the first free.
//
// Who uses it. Every certificate kind is checked by one kernel,
// VerifySignedVotes (src/types/types.h), which probes the cache it is given.
// HotStuff caches its QCs and TCs; the Mempool facade (Mempool::Valid)
// caches the certificates it is shown. The Narwhal primary owns no cache:
// the Dag is the set of certificates that validator verified, each once on
// first sight, and a certificate that arrives again (its broadcast, a header
// parent, a HotStuff payload) is matched there by digest. The kernel takes a
// null cache to mean "memoize nothing", which is what the primary passes.
//
// Every verifier owns its instance: HotStuff and Mempool, and
// each tool or test that verifies certificates outside a node. There is no
// process-wide cache. The simulator runs every validator in one process, and
// a shared cache would let validator i skip verification because validator j
// already did it — work no real deployment could share. For the same reason nothing derived from verification (a
// digest, a verdict) is memoized on the certificate objects themselves,
// which the simulated validators share. An instance takes no lock: the
// simulator is single-threaded, and its parallel sweeps fork processes.
//
// Key and binding. An entry is found by what the certificate certifies —
// its kind, subject digest and round (a Narwhal certificate: header digest
// and round; a HotStuff QC: block digest and view; a TC: its view) — so a
// lookup costs one hashed-table probe (keyed on the subject digest's first
// bytes, src/crypto/digest_table.h) and no SHA-256. The entry then binds
// exactly how that subject was certified: the committee fingerprint, the
// header author and the encoded (voter, signature) list, compared byte for
// byte against the presented certificate. A forged or different vote set
// under a cached subject therefore misses and goes back through signature
// verification, and two valid vote sets for the same subject are two
// entries. Only *positive* results are cached (a certificate that failed to
// verify is simply re-checked).
//
// The cache is bounded (LRU) and garbage-collection aware: once the DAG's GC
// horizon passes a round, certificates below it can no longer be presented
// for verification, so their entries are dropped eagerly, a whole per-round
// bucket at a time.
#ifndef SRC_TYPES_CERT_CACHE_H_
#define SRC_TYPES_CERT_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/digest_table.h"
#include "src/types/committee.h"

namespace nt {

class VerifiedCertCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t lru_evictions = 0;
    uint64_t gc_evictions = 0;
  };

  // Separates the key spaces of the certificate kinds sharing a cache.
  enum class Kind : uint8_t { kNarwhal, kQuorumCert, kTimeoutCert };

  // A certificate as presented for verification: (kind, subject, round) is
  // the key, (author, committee, votes) the binding. Borrows its fields.
  struct Claim {
    Kind kind;
    const Digest& subject;    // Header digest, QC block digest, zero for a TC.
    uint64_t round;           // Narwhal round or HotStuff view; the GC dimension.
    ValidatorId author;       // Narwhal header author; 0 for QCs and TCs.
    const Digest& committee;  // Committee::fingerprint().
    // The (voter, signature) list in VoteList's encoding: the certificate's
    // VoteList::bytes().
    std::span<const uint8_t> votes;
  };

  static constexpr size_t kDefaultCapacity = 8192;

  explicit VerifiedCertCache(size_t capacity = kDefaultCapacity);
  // The index holds iterators into the entry list, which a copy or move
  // would leave pointing at the source.
  VerifiedCertCache(const VerifiedCertCache&) = delete;
  VerifiedCertCache& operator=(const VerifiedCertCache&) = delete;

  // True iff a certificate with this key *and* binding was inserted earlier
  // and has not been evicted. Counts a hit or a miss and refreshes the
  // entry's LRU position on hit.
  bool Lookup(const Claim& claim);

  // Records a verified certificate (a copy of its binding). Entries below
  // the observed GC horizon are not admitted.
  void Insert(const Claim& claim);

  // Advances the GC horizon (monotone) and evicts entries below it.
  void OnGcRound(uint64_t gc_round);

  size_t size() const { return lru_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Key {
    Kind kind;
    uint64_t round;
    Digest subject;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    uint64_t operator()(const Key& key) const {
      // TC subjects are all zero: the round keeps their keys apart.
      return DigestHash{}(key.subject) ^ (key.round << 2) ^ static_cast<uint64_t>(key.kind);
    }
  };
  struct Entry;
  using LruList = std::list<Entry>;
  struct Entry {
    Key key;
    // The next entry under the same key (one per distinct binding), or
    // lru_.end().
    LruList::iterator next_binding;
    ValidatorId author;
    Digest committee;
    Bytes votes;

    bool Binds(const Claim& claim) const {
      return author == claim.author && committee == claim.committee &&
             std::ranges::equal(votes, claim.votes);
    }
  };

  // The entry for `claim`, or lru_.end().
  LruList::iterator Find(const Claim& claim);
  // Removes `entry` from the index (not from its round bucket or the LRU).
  void Unindex(LruList::iterator entry);
  // LRU eviction of the least recently used entry.
  void EvictOldest();

  size_t capacity_;
  uint64_t gc_round_ = 0;
  LruList lru_;  // Front = most recently used.
  // Key -> the most recently inserted entry under it; older bindings chain
  // through Entry::next_binding. Hit/miss, eviction and LRU order never
  // depend on the table's layout.
  FlatTable<Key, LruList::iterator, KeyHash> index_;
  // Round -> its entries, so a GC advance drops whole buckets.
  std::map<uint64_t, std::vector<LruList::iterator>> by_round_;
  Stats stats_;
};

}  // namespace nt

#endif  // SRC_TYPES_CERT_CACHE_H_
