// Byte-buffer primitives shared by every module: the `Bytes` alias, hex
// encoding/decoding, constant-time comparison for secret material, and the
// FNV-1a string hash.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nt {

using Bytes = std::vector<uint8_t>;

// An immutable buffer with shared ownership: written once, then read by
// every holder without a copy.
using SharedBytes = std::shared_ptr<const Bytes>;

// Encodes `data` as lowercase hex.
std::string ToHex(const uint8_t* data, size_t len);
std::string ToHex(const Bytes& data);

// Decodes a hex string (upper or lower case). Returns std::nullopt on any
// malformed input (odd length, non-hex characters).
std::optional<Bytes> FromHex(std::string_view hex);

// Compares two equal-length buffers without data-dependent branches. Returns
// true iff the buffers are byte-wise equal. Intended for MAC/signature
// comparisons where early-exit timing would leak information.
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len);

// 64-bit FNV-1a over the bytes of `s`: stable across platforms and runs. It
// derives Rng streams from labels, routes keys to execution lanes, and hashes
// string keys in FlatTable.
inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace nt

#endif  // SRC_COMMON_BYTES_H_
