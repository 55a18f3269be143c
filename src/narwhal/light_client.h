// Light-client verification (paper §8.4: "Light clients face a similar
// issue, their design needs to adapt to locate and track transaction data
// across workers").
//
// A light client holds only the committee's public keys. A full node hands
// it a self-contained InclusionProof showing that a transaction was
// sequenced: the certificate of availability (2f+1 signatures), the header
// it certifies, the referenced batch carrying the transaction, and the
// transaction's position. Verification needs no state beyond the committee:
//
//   certificate sigs -> header digest -> batch digest -> transaction bytes.
#ifndef SRC_NARWHAL_LIGHT_CLIENT_H_
#define SRC_NARWHAL_LIGHT_CLIENT_H_

#include <memory>
#include <optional>

#include "src/narwhal/primary.h"
#include "src/narwhal/worker.h"

namespace nt {

struct InclusionProof {
  Certificate certificate;
  std::shared_ptr<const BlockHeader> header;
  std::shared_ptr<const Batch> batch;
  uint32_t tx_index = 0;

  void Encode(Writer& w) const;
  static std::optional<InclusionProof> Decode(Reader& r);
  size_t WireSize() const;
};

class LightClient {
 public:
  // `verifier` supplies the signature scheme (any committee member's signer
  // works as a verifier; light clients can construct one from a throwaway
  // seed).
  LightClient(const Committee& committee, const Signer* verifier)
      : committee_(committee), verifier_(verifier) {}

  // Verifies the whole chain of custody and returns the proven transaction
  // bytes, or nullopt if any link fails:
  //  1. the certificate carries 2f+1 valid committee signatures;
  //  2. the header hashes to the certified digest (and is signed by its
  //     author);
  //  3. the batch hashes to a digest referenced by the header;
  //  4. tx_index addresses an explicit transaction within the batch.
  std::optional<Bytes> VerifyInclusion(const InclusionProof& proof) const;

  uint64_t verified() const { return verified_; }
  uint64_t rejected() const { return rejected_; }

 private:
  const Committee& committee_;
  const Signer* verifier_;
  // Client-local verified-certificate cache: a light client trusts only its
  // own past verifications, never another process-resident instance's.
  mutable VerifiedCertCache cert_cache_;
  mutable uint64_t verified_ = 0;
  mutable uint64_t rejected_ = 0;
};

// Full-node side: assembles a proof for an explicit transaction payload.
// Scans the validator's DAG in (round, author) order for the first certified
// header referencing a batch that contains `tx` (the §8.4 "locate
// transaction data across workers" step).
std::optional<InclusionProof> BuildInclusionProof(const Primary& primary, const Worker& worker,
                                                  const Bytes& tx);

}  // namespace nt

#endif  // SRC_NARWHAL_LIGHT_CLIENT_H_
