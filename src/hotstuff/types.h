// Chained-HotStuff data types: blocks, quorum certificates, timeout
// certificates, and the three payload kinds that distinguish baseline-HS,
// Batched-HS, and Narwhal-HS (paper §6).
#ifndef SRC_HOTSTUFF_TYPES_H_
#define SRC_HOTSTUFF_TYPES_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/types/types.h"

namespace nt {

using View = uint64_t;

// What a proposal carries:
//  - kTransactions: raw transactions inline (baseline-HS) — bulk bytes in
//    the consensus critical path;
//  - kBatchDigests: references to best-effort-disseminated batches
//    (Batched-HS / Prism-style) — no availability certificates;
//  - kCertificates: Narwhal certificates of availability (Narwhal-HS) —
//    committing one orders its whole causal history.
struct HsPayload {
  enum class Kind : uint8_t { kTransactions = 0, kBatchDigests = 1, kCertificates = 2 };

  Kind kind = Kind::kTransactions;
  // kTransactions: aggregate accounting + latency samples.
  uint64_t num_txs = 0;
  uint64_t payload_bytes = 0;
  std::vector<TxSample> samples;
  // kBatchDigests.
  std::vector<Digest> batch_digests;
  // kCertificates.
  std::vector<Certificate> certs;

  void Encode(Writer& w) const;
  size_t WireSize() const;
};

// 2f+1 votes over (block digest, view).
//
// Verify (VerifySignedVotes) memoizes positive results, keyed by (block
// digest, view) and bound to the exact vote set (see src/types/cert_cache.h),
// in `cache`: the verifying node's own (every node re-verifies
// independently, like a real deployment).
struct QuorumCert {
  Digest block_digest{};
  View view = 0;
  VoteList votes;

  static Bytes VotePreimage(const Digest& block_digest, View view);
  bool Verify(const Committee& committee, const Verifier& verifier, VerifiedCertCache* cache) const;
  // The genesis QC: zero digest, view 0, no votes. Exempt from Verify.
  bool IsGenesis() const { return view == 0 && votes.size() == 0; }
  size_t WireSize() const { return 32 + 8 + votes.size() * (4 + 64); }
};

// 2f+1 signed timeouts for a view; justifies entering view+1 without a QC.
// `cache` as in QuorumCert::Verify; the key is the view alone.
struct TimeoutCert {
  View view = 0;
  VoteList votes;

  static Bytes VotePreimage(View view);
  bool Verify(const Committee& committee, const Verifier& verifier, VerifiedCertCache* cache) const;
  size_t WireSize() const { return 8 + votes.size() * (4 + 64); }
};

struct HsBlock {
  ValidatorId author = 0;
  View view = 0;
  Digest parent{};       // Digest of the parent block (== justify.block_digest).
  QuorumCert justify;    // QC for the parent.
  std::optional<TimeoutCert> tc;  // Present when the previous view timed out.
  HsPayload payload;
  Signature author_sig{};

  Digest ComputeDigest() const;
  size_t WireSize() const;
};

}  // namespace nt

#endif  // SRC_HOTSTUFF_TYPES_H_
