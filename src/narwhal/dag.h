// The local certificate DAG (paper Fig. 2): per-round certificates of
// availability plus the headers that carry the causal edges, with round-
// based garbage collection (§3.3) and the deterministic causal-history
// linearization both Tusk and Narwhal-HotStuff use after agreeing on an
// anchor certificate (§3.2, §5).
//
// Ownership. The Dag holds each certificate as a CertPtr and never copies
// it: the primary hands in a pointer that aliases the header or message the
// certificate arrived in, so one certificate object serves every validator
// that learned it from the same delivery. Every certificate object, in turn,
// shares its author's sealed buffer (see Certificate).
//
// Indexes. Certificates live in `by_round_`, ordered by (round, author): that
// order is observable (proposal parents, commit order, GC eviction), so it
// stays an ordered map. Every lookup by digest goes through a hashed
// FlatTable with one probe: digest -> certificate, digest -> header, and
// digest -> citers. The citer count is the commit rules' support test kept
// incrementally: it is bumped once when a (certificate, header) pair at round
// r+1 becomes complete, whichever of the two arrives second, for each
// distinct round-r parent the header cites. Because the Dag itself keeps it,
// direct inserts (recovery, replay tools) stay indexed with no hooks.
#ifndef SRC_NARWHAL_DAG_H_
#define SRC_NARWHAL_DAG_H_

#include <map>
#include <memory>
#include <vector>

#include "src/crypto/digest_table.h"
#include "src/types/types.h"

namespace nt {

class Dag {
 public:
  // Adds a certificate, keeping the pointer it is given. Returns false (and
  // keeps the first) if a conflicting certificate for the same (round,
  // author) already exists — impossible with an honest quorum, checked
  // defensively; only the first conflict a Dag sees is logged. Idempotent
  // for duplicates.
  bool AddCertificate(CertPtr cert);
  // Adds a copy of `cert`, which shares its buffer (recovery, tests, replay
  // tools).
  bool AddCertificate(const Certificate& cert) {
    return AddCertificate(std::make_shared<const Certificate>(cert));
  }

  // Stores the header for a certificate (carries the causal edges and batch
  // references). Idempotent for a digest already stored.
  void AddHeader(std::shared_ptr<const BlockHeader> header, const Digest& digest);

  const Certificate* GetCert(Round round, ValidatorId author) const;
  const Certificate* GetCertByDigest(const Digest& header_digest) const {
    const CertPtr* cert = by_digest_.find(header_digest);
    return cert == nullptr ? nullptr : cert->get();
  }
  // The held certificate itself, for a holder that outlives the DAG entry.
  CertPtr GetSharedCert(const Digest& header_digest) const {
    const CertPtr* cert = by_digest_.find(header_digest);
    return cert == nullptr ? nullptr : *cert;
  }
  std::shared_ptr<const BlockHeader> GetHeader(const Digest& header_digest) const {
    const std::shared_ptr<const BlockHeader>* header = headers_.find(header_digest);
    return header == nullptr ? nullptr : *header;
  }
  bool HasHeader(const Digest& header_digest) const { return headers_.contains(header_digest); }

  // Certified blocks whose stored headers cite `header_digest` as a parent
  // one round below them: the direct support of a wave leader (Tusk §5,
  // Bullshark's anchor vote). Counts only complete (certificate, header)
  // pairs in the local view, each once; exact for every certificate at or
  // above the GC horizon.
  uint32_t Citers(const Digest& header_digest) const {
    const uint32_t* count = citers_.find(header_digest);
    return count == nullptr ? 0 : *count;
  }

  // Certificates stored for a round (empty map if none).
  const std::map<ValidatorId, CertPtr>& CertsAt(Round round) const;
  size_t CertCountAt(Round round) const { return CertsAt(round).size(); }

  // Highest round with at least one certificate (0 if empty).
  Round HighestRound() const { return by_round_.empty() ? 0 : by_round_.rbegin()->first; }

  // --- garbage collection ----------------------------------------------------

  Round gc_round() const { return gc_round_; }

  // A record evicted by garbage collection: everything a cold store (the
  // paper's §3.3 CDN offload) needs to keep serving the block.
  struct Collected {
    Digest digest{};
    CertPtr cert;
    std::shared_ptr<const BlockHeader> header;  // May be null if never synced.
  };

  // Drops all certificates and headers with round < `new_gc_round`,
  // returning the evicted records (re-injection + archival).
  std::vector<Collected> GarbageCollect(Round new_gc_round);

  // --- traversal ---------------------------------------------------------------

  // True iff a path of parent edges exists from `from` down to `to`
  // (both are header digests; edges require stored headers).
  bool HasPath(const Digest& from, const Digest& to) const;

  struct History {
    // Headers in deterministic commit order: (round asc, author asc);
    // the anchor is always last.
    std::vector<Digest> ordered;
    // Headers referenced by the history but not yet stored locally — the
    // caller must sync them before committing.
    std::vector<Digest> missing;
  };

  // Collects the anchor's causal history down to the GC round, excluding
  // digests in `committed`. If any header on the way is missing, `missing`
  // is non-empty and `ordered` must not be committed yet.
  History CollectCausalHistory(const Digest& anchor, const DigestSet& committed) const;

  size_t TotalCertificates() const { return by_digest_.size(); }
  size_t TotalHeaders() const { return headers_.size(); }

 private:
  const BlockHeader* FindHeader(const Digest& header_digest) const {
    const std::shared_ptr<const BlockHeader>* header = headers_.find(header_digest);
    return header == nullptr ? nullptr : header->get();
  }
  // Adds `header`'s citations to citers_; called once, when its pair
  // completes.
  void CountCitations(const BlockHeader& header);

  Round gc_round_ = 0;
  // round -> author -> certificate.
  std::map<Round, std::map<ValidatorId, CertPtr>> by_round_;
  // header digest -> its certificate in by_round_.
  DigestMap<CertPtr> by_digest_;
  DigestMap<std::shared_ptr<const BlockHeader>> headers_;
  // header digest -> Citers().
  DigestMap<uint32_t> citers_;
  bool conflict_logged_ = false;
};

}  // namespace nt

#endif  // SRC_NARWHAL_DAG_H_
