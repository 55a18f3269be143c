#include "src/types/types.h"

#include <algorithm>
#include <span>

#include "src/common/seeded_bugs.h"
#include "src/types/cert_cache.h"

namespace nt {
namespace {

// Fixed wire-size contributions (bytes). Signatures are 64, digests 32.
constexpr size_t kSigSize = 64;
constexpr size_t kDigestSize = 32;

// Quorum size, distinct known voters — everything except signatures.
bool CertStructureOk(const Committee& committee, const Certificate& cert) {
  // Honest threshold is 2f+1; the seeded accept_2f_certs mutation accepts 2f
  // (breaks quorum intersection — see src/common/seeded_bugs.h).
  // ntlint:allow(quorum-arith): deliberate seeded mutation — 2f (not 2f+1) breaks quorum intersection to mutation-test the DST harness
  uint32_t threshold = seeded_bugs::accept_2f_certs ? std::max(1u, 2 * committee.f())
                                                    : committee.quorum_threshold();
  return cert.votes.size() >= threshold && committee.DistinctMembers(cert.votes);
}

// The certificate as a cache claim: keyed by the header it certifies, bound
// to its round, author, committee and exact vote set.
VerifiedCertCache::Claim CacheClaim(const Committee& committee, const Certificate& cert) {
  return {VerifiedCertCache::Kind::kNarwhal, cert.header_digest, cert.round, cert.author,
          committee.fingerprint(), cert.votes};
}

// Certificate::Verify and VerifyAll: structure check and cache probe per
// certificate, then one batched flush over the uncached certificates' votes
// (each vote item borrows its certificate's one preimage), then each
// certificate's own verdict and, if valid, its cache entry.
bool VerifyCertificates(std::span<const Certificate> certs, const Committee& committee,
                        const Signer& verifier, VerifiedCertCache& cache) {
  bool all_valid = true;
  std::vector<const Certificate*> pending;
  for (const Certificate& cert : certs) {
    if (!CertStructureOk(committee, cert)) {
      all_valid = false;
    } else if (!cache.Lookup(CacheClaim(committee, cert))) {
      pending.push_back(&cert);
    }
  }
  if (pending.empty()) {
    return all_valid;
  }
  std::vector<Bytes> preimages;
  preimages.reserve(pending.size());  // Items point into these buffers.
  size_t num_votes = 0;
  for (const Certificate* cert : pending) {
    num_votes += cert->votes.size();
  }
  std::vector<BatchItem> items;
  items.reserve(num_votes);
  for (const Certificate* cert : pending) {
    const Bytes& preimage = preimages.emplace_back(
        Certificate::VotePreimage(cert->header_digest, cert->round, cert->author));
    for (const auto& [voter, sig] : cert->votes) {
      items.push_back({committee.key_of(voter), preimage.data(), preimage.size(), sig});
    }
  }
  const std::vector<bool> ok = verifier.VerifyBatch(items);
  size_t next = 0;
  for (const Certificate* cert : pending) {
    bool cert_ok = true;
    for (size_t i = 0; i < cert->votes.size(); ++i) {
      cert_ok = ok[next++] && cert_ok;
    }
    if (cert_ok) {
      cache.Insert(CacheClaim(committee, *cert));
    } else {
      all_valid = false;
    }
  }
  return all_valid;
}

}  // namespace

// -------------------------------------------------------------------- Batch

void Batch::Encode(Writer& w) const {
  w.PutU32(author);
  w.PutU32(worker);
  w.PutU64(seq);
  w.PutU64(num_txs);
  w.PutU64(payload_bytes);
  w.PutU32(static_cast<uint32_t>(samples.size()));
  for (const TxSample& s : samples) {
    w.PutU64(s.tx_id);
    w.PutI64(s.submit_time);
  }
  w.PutU32(static_cast<uint32_t>(txs.size()));
  for (const Bytes& tx : txs) {
    w.PutVar(tx);
  }
}

std::optional<Batch> Batch::Decode(Reader& r) {
  Batch b;
  b.author = r.GetU32();
  b.worker = r.GetU32();
  b.seq = r.GetU64();
  b.num_txs = r.GetU64();
  b.payload_bytes = r.GetU64();
  uint32_t n_samples = r.GetU32();
  for (uint32_t i = 0; i < n_samples && r.ok(); ++i) {
    TxSample s;
    s.tx_id = r.GetU64();
    s.submit_time = r.GetI64();
    b.samples.push_back(s);
  }
  uint32_t n_txs = r.GetU32();
  for (uint32_t i = 0; i < n_txs && r.ok(); ++i) {
    b.txs.push_back(r.GetVar());
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return b;
}

Digest Batch::ComputeDigest() const {
  Writer w;
  w.PutString("narwhal-batch");
  Encode(w);
  return Sha256::Hash(w.bytes());
}

size_t Batch::WireSize() const {
  // Aggregate payload bytes already include explicit tx bytes when callers
  // keep the invariant; avoid double counting by taking the max.
  size_t explicit_bytes = 0;
  for (const Bytes& tx : txs) {
    explicit_bytes += tx.size() + 4;
  }
  return 32 + samples.size() * 16 + std::max<size_t>(payload_bytes, explicit_bytes);
}

// ----------------------------------------------------------------- BatchRef

void BatchRef::Encode(Writer& w) const {
  w.PutRaw(digest);
  w.PutU32(worker);
  w.PutU64(num_txs);
  w.PutU64(payload_bytes);
}

BatchRef BatchRef::Decode(Reader& r) {
  BatchRef b;
  b.digest = r.GetArray<32>();
  b.worker = r.GetU32();
  b.num_txs = r.GetU64();
  b.payload_bytes = r.GetU64();
  return b;
}

// -------------------------------------------------------------- Certificate

Bytes Certificate::VotePreimage(const Digest& header_digest, Round round, ValidatorId author) {
  Writer w;
  w.PutString("narwhal-vote");
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  return w.Take();
}

void Certificate::Encode(Writer& w) const {
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  w.PutU32(static_cast<uint32_t>(votes.size()));
  for (const auto& [voter, sig] : votes) {
    w.PutU32(voter);
    w.PutRaw(sig);
  }
}

std::optional<Certificate> Certificate::Decode(Reader& r) {
  Certificate c;
  c.header_digest = r.GetArray<32>();
  c.round = r.GetU64();
  c.author = r.GetU32();
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ValidatorId voter = r.GetU32();
    Signature sig = r.GetArray<64>();
    c.votes.emplace_back(voter, sig);
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return c;
}

bool Certificate::Verify(const Committee& committee, const Signer& verifier,
                         VerifiedCertCache* cache) const {
  return VerifyCertificates(std::span(this, 1), committee, verifier, *cache);
}

bool Certificate::VerifyAll(const std::vector<Certificate>& certs, const Committee& committee,
                            const Signer& verifier, VerifiedCertCache* cache) {
  return VerifyCertificates(certs, committee, verifier, *cache);
}

size_t Certificate::WireSize() const {
  return kDigestSize + 8 + 4 + 4 + votes.size() * (4 + kSigSize);
}

// -------------------------------------------------------------- BlockHeader

Digest BlockHeader::ComputeDigest() const {
  Writer w;
  w.PutString("narwhal-header");
  w.PutU32(author);
  w.PutU64(round);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const BatchRef& b : batches) {
    b.Encode(w);
  }
  w.PutU32(static_cast<uint32_t>(parents.size()));
  for (const Certificate& c : parents) {
    // Identify parents by (digest, round, author) — not by their vote sets.
    w.PutRaw(c.header_digest);
    w.PutU64(c.round);
    w.PutU32(c.author);
  }
  return Sha256::Hash(w.bytes());
}

void BlockHeader::Encode(Writer& w) const {
  w.PutU32(author);
  w.PutU64(round);
  w.PutU32(static_cast<uint32_t>(batches.size()));
  for (const BatchRef& b : batches) {
    b.Encode(w);
  }
  w.PutU32(static_cast<uint32_t>(parents.size()));
  for (const Certificate& c : parents) {
    c.Encode(w);
  }
  w.PutRaw(author_sig);
}

std::optional<BlockHeader> BlockHeader::Decode(Reader& r) {
  BlockHeader h;
  h.author = r.GetU32();
  h.round = r.GetU64();
  uint32_t n_batches = r.GetU32();
  for (uint32_t i = 0; i < n_batches && r.ok(); ++i) {
    h.batches.push_back(BatchRef::Decode(r));
  }
  uint32_t n_parents = r.GetU32();
  for (uint32_t i = 0; i < n_parents && r.ok(); ++i) {
    auto c = Certificate::Decode(r);
    if (!c.has_value()) {
      return std::nullopt;
    }
    h.parents.push_back(std::move(*c));
  }
  h.author_sig = r.GetArray<64>();
  if (!r.ok()) {
    return std::nullopt;
  }
  return h;
}

size_t BlockHeader::WireSize() const {
  size_t size = 4 + 8 + 4 + 4 + kSigSize;
  size += batches.size() * (kDigestSize + 4 + 8 + 8);
  for (const Certificate& c : parents) {
    size += c.WireSize();
  }
  return size;
}

// --------------------------------------------------------------------- Vote

void Vote::Encode(Writer& w) const {
  w.PutRaw(header_digest);
  w.PutU64(round);
  w.PutU32(author);
  w.PutU32(voter);
  w.PutRaw(sig);
}

std::optional<Vote> Vote::Decode(Reader& r) {
  Vote v;
  v.header_digest = r.GetArray<32>();
  v.round = r.GetU64();
  v.author = r.GetU32();
  v.voter = r.GetU32();
  v.sig = r.GetArray<64>();
  if (!r.ok()) {
    return std::nullopt;
  }
  return v;
}

bool Vote::Verify(const Committee& committee, const Signer& verifier) const {
  if (!committee.Contains(voter) || !committee.Contains(author)) {
    return false;
  }
  Bytes preimage = Certificate::VotePreimage(header_digest, round, author);
  return verifier.Verify(committee.key_of(voter), preimage, sig);
}

size_t Vote::WireSize() const { return kDigestSize + 8 + 4 + 4 + kSigSize; }

}  // namespace nt
