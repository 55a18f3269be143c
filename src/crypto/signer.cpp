#include "src/crypto/signer.h"

#include <cstring>

#include "src/common/codec.h"
#include "src/crypto/digest_table.h"
#include "src/crypto/ed25519.h"

namespace nt {

std::vector<bool> Signer::VerifyBatch(const std::vector<BatchItem>& items) const {
  std::vector<bool> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = Verify(items[i].pk, items[i].msg, items[i].len, items[i].sig);
  }
  return out;
}

namespace {

class Ed25519Signer : public Signer {
 public:
  explicit Ed25519Signer(const std::array<uint8_t, 32>& seed)
      : seed_(seed), pk_(Ed25519Public(seed)) {}

  const PublicKey& public_key() const override { return pk_; }

  Signature Sign(const uint8_t* msg, size_t len) const override {
    return Ed25519Sign(seed_, msg, len);
  }

  bool Verify(const PublicKey& pk, const uint8_t* msg, size_t len,
              const Signature& sig) const override {
    return Ed25519Verify(pk, msg, len, sig);
  }

  std::vector<bool> VerifyBatch(const std::vector<BatchItem>& items) const override {
    return Ed25519BatchVerify(items);
  }

 private:
  Ed25519Seed seed_;
  PublicKey pk_;
};

// Registry mapping FastSigner public keys to their secrets, so any FastSigner
// can verify any other's signatures within the process (authenticated-channel
// model; see header).
class FastKeyRegistry {
 public:
  static FastKeyRegistry& Instance() {
    static FastKeyRegistry registry;
    return registry;
  }

  void Register(const PublicKey& pk, const std::array<uint8_t, 32>& secret) {
    keys_[pk] = secret;
  }

  bool Lookup(const PublicKey& pk, std::array<uint8_t, 32>* secret) const {
    const std::array<uint8_t, 32>* found = keys_.find(pk);
    if (found == nullptr) {
      return false;
    }
    *secret = *found;
    return true;
  }

 private:
  DigestMap<std::array<uint8_t, 32>> keys_;
};

Signature FastMac(const std::array<uint8_t, 32>& secret, const uint8_t* msg, size_t len) {
  Sha256 h;
  h.Update(secret.data(), secret.size());
  h.Update(msg, len);
  Digest mac = h.Finalize();
  // Second half binds the first (cheap domain separation); total 64 bytes to
  // match Ed25519's wire size.
  Sha256 h2;
  h2.Update(mac.data(), mac.size());
  Digest mac2 = h2.Finalize();
  Signature sig;
  std::memcpy(sig.data(), mac.data(), 32);
  std::memcpy(sig.data() + 32, mac2.data(), 32);
  return sig;
}

class FastSigner : public Signer {
 public:
  explicit FastSigner(const std::array<uint8_t, 32>& seed) : secret_(seed) {
    // Public key = H("fast-pk" || seed): unlinkable to the secret without the
    // registry, distinct per seed.
    Sha256 h;
    h.Update("fast-pk");
    h.Update(seed.data(), seed.size());
    pk_ = h.Finalize();
    FastKeyRegistry::Instance().Register(pk_, secret_);
  }

  const PublicKey& public_key() const override { return pk_; }

  Signature Sign(const uint8_t* msg, size_t len) const override {
    return FastMac(secret_, msg, len);
  }

  bool Verify(const PublicKey& pk, const uint8_t* msg, size_t len,
              const Signature& sig) const override {
    std::array<uint8_t, 32> secret;
    if (!FastKeyRegistry::Instance().Lookup(pk, &secret)) {
      return false;
    }
    Signature expected = FastMac(secret, msg, len);
    return ConstantTimeEqual(expected.data(), sig.data(), expected.size());
  }

 private:
  std::array<uint8_t, 32> secret_;
  PublicKey pk_;
};

}  // namespace

std::unique_ptr<Signer> MakeSigner(SignerKind kind, const std::array<uint8_t, 32>& seed) {
  switch (kind) {
    case SignerKind::kEd25519:
      return std::make_unique<Ed25519Signer>(seed);
    case SignerKind::kFast:
      return std::make_unique<FastSigner>(seed);
  }
  return nullptr;
}

std::array<uint8_t, 32> DeriveSeed(uint64_t root_seed, uint64_t index) {
  Writer w;
  w.PutString("validator-seed");
  w.PutU64(root_seed);
  w.PutU64(index);
  return Sha256::Hash(w.bytes());
}

}  // namespace nt
