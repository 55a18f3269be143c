#include "src/hotstuff/types.h"

#include "src/types/cert_cache.h"

namespace nt {
namespace {

// A TC certifies a view, not a block: its cache subject is zero.
const Digest kNoSubject{};

}  // namespace

// ----------------------------------------------------------------- HsPayload

void HsPayload::Encode(Writer& w) const {
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU64(num_txs);
  w.PutU64(payload_bytes);
  w.PutU32(static_cast<uint32_t>(samples.size()));
  for (const TxSample& s : samples) {
    w.PutU64(s.tx_id);
    w.PutI64(s.submit_time);
  }
  w.PutU32(static_cast<uint32_t>(batch_digests.size()));
  for (const Digest& d : batch_digests) {
    w.PutRaw(d);
  }
  w.PutU32(static_cast<uint32_t>(certs.size()));
  for (const Certificate& c : certs) {
    EncodeWire(w, c);
  }
}

size_t HsPayload::WireSize() const {
  size_t size = 1 + 8 + 8 + 12;
  switch (kind) {
    case Kind::kTransactions:
      // Raw transactions ride in the proposal.
      size += payload_bytes + samples.size() * 16;
      break;
    case Kind::kBatchDigests:
      size += batch_digests.size() * 32;
      break;
    case Kind::kCertificates:
      for (const Certificate& c : certs) {
        size += WireSizeOf(c);
      }
      break;
  }
  return size;
}

// ---------------------------------------------------------------- QuorumCert

Bytes QuorumCert::VotePreimage(const Digest& block_digest, View view) {
  Writer w;
  w.PutString("hotstuff-vote");
  w.PutRaw(block_digest);
  w.PutU64(view);
  return w.Take();
}

bool QuorumCert::Verify(const Committee& committee, const Verifier& verifier,
                        VerifiedCertCache* cache) const {
  if (IsGenesis()) {
    return true;
  }
  const SignedVotes set{VerifiedCertCache::Kind::kQuorumCert, block_digest, view, 0, votes,
                        [](const Digest& digest, uint64_t v, ValidatorId) {
                          return VotePreimage(digest, v);
                        }};
  return VerifySignedVotes(std::span(&set, 1), committee, verifier, cache);
}

// --------------------------------------------------------------- TimeoutCert

Bytes TimeoutCert::VotePreimage(View view) {
  Writer w;
  w.PutString("hotstuff-timeout");
  w.PutU64(view);
  return w.Take();
}

bool TimeoutCert::Verify(const Committee& committee, const Verifier& verifier,
                         VerifiedCertCache* cache) const {
  const SignedVotes set{VerifiedCertCache::Kind::kTimeoutCert, kNoSubject, view, 0, votes,
                        [](const Digest&, uint64_t v, ValidatorId) { return VotePreimage(v); }};
  return VerifySignedVotes(std::span(&set, 1), committee, verifier, cache);
}

// ------------------------------------------------------------------- HsBlock

Digest HsBlock::ComputeDigest() const {
  Writer w;
  w.PutString("hotstuff-block");
  w.PutU32(author);
  w.PutU64(view);
  w.PutRaw(parent);
  w.PutRaw(justify.block_digest);
  w.PutU64(justify.view);
  payload.Encode(w);
  return Sha256::Hash(w.bytes());
}

size_t HsBlock::WireSize() const {
  size_t size = 4 + 8 + 32 + 64 + justify.WireSize() + payload.WireSize();
  if (tc.has_value()) {
    size += tc->WireSize();
  }
  return size;
}

}  // namespace nt
