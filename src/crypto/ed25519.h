// Ed25519 signatures (RFC 8032), implemented from scratch:
//  - field arithmetic over GF(2^255 - 19) with 5x51-bit limbs,
//  - twisted-Edwards group operations in extended coordinates: the complete
//    unified addition law plus dedicated doubling (4S+4M) and cached-operand
//    addition/subtraction formulas for table-driven scalar multiplication,
//  - scalar arithmetic modulo the group order L (word-folding reduction via
//    2^252 == -delta mod L),
//  - key generation, signing, and strict *cofactored* verification: rejects
//    S >= L and checks [8]([S]B - R - [k]A) == identity (the RFC 8032
//    "[8][S]B == [8]R + [8][k]A" variant),
//  - a precomputed radix-16 window table for the base point (fixed-base
//    scalar multiplication in ~64 additions, no doublings),
//  - batch verification of the cofactored RFC 8032 batch equation
//        [8]([sum z_i s_i] B - sum [z_i k_i] A_i - sum [z_i] R_i) == identity
//    with 128-bit random coefficients z_i, evaluated by an interleaved
//    Straus multi-scalar multiplication that shares one doubling chain
//    across every point in the batch; failures bisect to identify culprits.
//
// Both verification paths are cofactored so they accept exactly the same
// signature sets: multiplying the residual by 8 clears small-order (torsion)
// components on both sides, which is what prevents an adversarial torsion
// offset (e.g. R' = R + T for an order-8 T) from making batch and single
// verdicts diverge with the flush composition.
//
// Curve constants (d = -121665/121666, sqrt(-1), the base point from
// y = 4/5) are derived at startup with field operations instead of being
// transcribed, and pinned by known-answer tests.
#ifndef SRC_CRYPTO_ED25519_H_
#define SRC_CRYPTO_ED25519_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bytes.h"

namespace nt {

using Ed25519Seed = std::array<uint8_t, 32>;
using Ed25519PublicKey = std::array<uint8_t, 32>;
using Ed25519Signature = std::array<uint8_t, 64>;

// Derives the public key for a 32-byte seed (the RFC 8032 private key).
Ed25519PublicKey Ed25519Public(const Ed25519Seed& seed);

// Signs `msg` with the expanded key of `seed`. Deterministic (RFC 8032).
Ed25519Signature Ed25519Sign(const Ed25519Seed& seed, const uint8_t* msg, size_t len);
inline Ed25519Signature Ed25519Sign(const Ed25519Seed& seed, const Bytes& msg) {
  return Ed25519Sign(seed, msg.data(), msg.size());
}

// Verifies a signature. Strict about encodings — rejects non-canonical S
// (S >= L) and non-decodable points — and cofactored about the group
// equation, so the verdict matches Ed25519BatchVerify for every input,
// including signatures with small-order components.
bool Ed25519Verify(const Ed25519PublicKey& pk, const uint8_t* msg, size_t len,
                   const Ed25519Signature& sig);
inline bool Ed25519Verify(const Ed25519PublicKey& pk, const Bytes& msg,
                          const Ed25519Signature& sig) {
  return Ed25519Verify(pk, msg.data(), msg.size(), sig);
}

// --- Batch verification ----------------------------------------------------

// One signature to check in a batch (also Signer::VerifyBatch's item type,
// for both schemes). `msg` is borrowed: it must stay alive until the
// Ed25519BatchVerify call returns.
struct Ed25519BatchItem {
  Ed25519PublicKey pk{};
  const uint8_t* msg = nullptr;
  size_t len = 0;
  Ed25519Signature sig{};
};

// Verifies `n` signatures together and returns one validity bit per item
// (empty input -> empty output). Verdicts match Ed25519Verify: S >= L and
// non-decodable A/R are rejected per item before the batch equation runs,
// and both paths check the cofactored group equation, so no input — honest
// or adversarial — verifies differently here than it does one at a time
// (a 2^-128 Fiat-Shamir z-collision could make a failing subset pass, but
// torsion components cannot, and bisection leaves fall back to the single
// equation). A batch whose combined equation fails is bisected, so the
// result identifies precisely which items are bad while still paying the
// batched cost for the valid majority.
std::vector<bool> Ed25519BatchVerify(const Ed25519BatchItem* items, size_t n);
inline std::vector<bool> Ed25519BatchVerify(const std::vector<Ed25519BatchItem>& items) {
  return Ed25519BatchVerify(items.data(), items.size());
}

// --- Introspection hooks used by tests -------------------------------------

// Multiplies the base point by a little-endian 256-bit scalar and returns the
// compressed encoding. Exposed so tests can check [L]B == identity and the
// distributive law of scalar multiplication.
Ed25519PublicKey Ed25519ScalarMultBase(const std::array<uint8_t, 32>& scalar);

// Returns true iff `encoded` decodes to a point on the curve.
bool Ed25519PointOnCurve(const std::array<uint8_t, 32>& encoded);

// The group order L as 32 little-endian bytes.
std::array<uint8_t, 32> Ed25519GroupOrder();

}  // namespace nt

#endif  // SRC_CRYPTO_ED25519_H_
