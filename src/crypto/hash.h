// SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//
// The round constants and initial hash values are *derived* at first use from
// their definition — the fractional parts of the cube/square roots of the
// first primes — using exact multi-word integer arithmetic, rather than being
// transcribed as literal tables. Known-answer tests pin the results to the
// NIST vectors.
#ifndef SRC_CRYPTO_HASH_H_
#define SRC_CRYPTO_HASH_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace nt {

// A 32-byte content digest (SHA-256 output). Used as the identifier of
// batches, headers, and certificates throughout the protocol stack.
using Digest = std::array<uint8_t, 32>;

// Lexicographic digest order, compared as four big-endian 64-bit words: the
// same order as std::less<Digest> (so iteration order, and everything derived
// from it, is unchanged), in at most four word compares instead of a byte-wise
// memcmp. For the Digest-keyed maps and sets on the hot paths.
struct DigestLess {
  static uint64_t Word(const Digest& d, size_t i) {
    uint64_t w;
    std::memcpy(&w, d.data() + 8 * i, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  bool operator()(const Digest& a, const Digest& b) const {
    for (size_t i = 0; i < 4; ++i) {
      const uint64_t wa = Word(a, i);
      const uint64_t wb = Word(b, i);
      if (wa != wb) {
        return wa < wb;
      }
    }
    return false;
  }
};

std::string DigestHex(const Digest& d);
// First 8 hex chars — for logs.
std::string DigestShort(const Digest& d);

// Streaming SHA-256.
class Sha256 {
 public:
  Sha256();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) { Update(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }
  Digest Finalize();

  static Digest Hash(const uint8_t* data, size_t len);
  static Digest Hash(const Bytes& data) { return Hash(data.data(), data.size()); }
  static Digest Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Compression-function calls made on the calling thread so far. A
  // deterministic work counter: tests assert hashing budgets with it (a
  // warm-cache certificate check must compress nothing).
  static uint64_t blocks_processed();

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

// Streaming SHA-512.
class Sha512 {
 public:
  using Output = std::array<uint8_t, 64>;

  Sha512();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) { Update(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }
  Output Finalize();

  static Output Hash(const uint8_t* data, size_t len);
  static Output Hash(const Bytes& data) { return Hash(data.data(), data.size()); }

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint64_t, 8> state_;
  std::array<uint8_t, 128> buffer_;
  // 128-bit message length; low word is enough for any input we hash.
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace nt

#endif  // SRC_CRYPTO_HASH_H_
