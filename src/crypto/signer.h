// Signature scheme abstraction used by the protocol stack.
//
// Two implementations:
//  - Ed25519Signer: real RFC 8032 signatures (what the paper's artifact uses
//    via ed25519-dalek). Used by crypto tests and --real-crypto runs.
//  - FastSigner: a keyed-hash authenticator (sig = SHA-256(sk || msg) padded
//    to 64 bytes). Verification resolves the signer's secret through a
//    process-local registry — sound in a single-process simulation, where it
//    models authenticated channels. Default for protocol benchmarks so that
//    signature CPU cost on a laptop does not mask the network behaviour the
//    paper measures (its testbed had 16 physical cores per validator).
//
// Wire sizes match Ed25519 (32-byte keys, 64-byte signatures) in both modes
// so bandwidth accounting is identical.
#ifndef SRC_CRYPTO_SIGNER_H_
#define SRC_CRYPTO_SIGNER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/hash.h"

namespace nt {

using PublicKey = std::array<uint8_t, 32>;
using Signature = std::array<uint8_t, 64>;

// One (public key, message, signature) triple to verify in a batch — the
// Ed25519 kernel's item type, shared by both schemes so Ed25519Signer hands
// the caller's items to the kernel unchanged. The message is borrowed: it
// must outlive the VerifyBatch call, and many items may point at one buffer
// (every vote of a certificate signs the same preimage).
using BatchItem = Ed25519BatchItem;

// Checks signatures under any public key of one scheme, and cannot create
// one. Protocol objects reach the key they sign with only through a
// SigningLedger (src/store/ledger.h); everything else they hold is this.
class Verifier {
 public:
  virtual ~Verifier() = default;

  // Verifies under an arbitrary public key of the same scheme.
  virtual bool Verify(const PublicKey& pk, const uint8_t* msg, size_t len,
                      const Signature& sig) const = 0;
  bool Verify(const PublicKey& pk, const Bytes& msg, const Signature& sig) const {
    return Verify(pk, msg.data(), msg.size(), sig);
  }
  bool Verify(const PublicKey& pk, const Digest& d, const Signature& sig) const {
    return Verify(pk, d.data(), d.size(), sig);
  }

  // Verifies a batch of signatures, one verdict per item. The default
  // implementation loops over Verify (what FastSigner wants: its keyed-hash
  // MACs have no batchable structure); Ed25519Signer overrides it with true
  // multi-scalar batch verification. Must agree with per-item Verify in both
  // schemes so protocol code can stay scheme-agnostic — Ed25519 guarantees
  // this by checking the *cofactored* equation on both paths (small-order
  // adversarial components clear identically), leaving only the 2^-128
  // Fiat-Shamir collision as a theoretical divergence.
  virtual std::vector<bool> VerifyBatch(const std::vector<BatchItem>& items) const;
};

// A private signing key bound to one identity.
class Signer : public Verifier {
 public:
  virtual const PublicKey& public_key() const = 0;
  virtual Signature Sign(const uint8_t* msg, size_t len) const = 0;
  Signature Sign(const Bytes& msg) const { return Sign(msg.data(), msg.size()); }
  Signature Sign(const Digest& d) const { return Sign(d.data(), d.size()); }
};

enum class SignerKind { kEd25519, kFast };

// Creates a signer deterministically from a 32-byte seed.
std::unique_ptr<Signer> MakeSigner(SignerKind kind, const std::array<uint8_t, 32>& seed);

// Convenience: derives the seed for validator `index` from a root seed.
std::array<uint8_t, 32> DeriveSeed(uint64_t root_seed, uint64_t index);

}  // namespace nt

#endif  // SRC_CRYPTO_SIGNER_H_
