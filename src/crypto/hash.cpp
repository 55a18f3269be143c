#include "src/crypto/hash.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NT_SHA256_SHANI 1
#include <immintrin.h>
#endif

namespace nt {
namespace {

// ---------------------------------------------------------------------------
// Constant derivation.
//
// FIPS 180-4 defines the SHA-2 constants as the first 64 bits of the
// fractional parts of the cube roots of the first 80 primes (round constants)
// and of the square roots of the first 16 primes (initial hash values).
// We compute floor(frac(root(p)) * 2^64) exactly: binary-search the 64
// fractional bits of the root, comparing candidate^k against p << (64*k)
// using multi-word integer arithmetic.
// ---------------------------------------------------------------------------

// 320-bit accumulator as 5 little-endian 64-bit words.
struct U320 {
  uint64_t w[5] = {0, 0, 0, 0, 0};

  // Three-way compare.
  int Compare(const U320& other) const {
    for (int i = 4; i >= 0; --i) {
      if (w[i] != other.w[i]) {
        return w[i] < other.w[i] ? -1 : 1;
      }
    }
    return 0;
  }
};

U320 AddShift64(const U320& a, const U320& b_shifted_by_64) {
  // Adds b << 64 to a.
  U320 out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 sum = carry + a.w[i];
    if (i >= 1) {
      sum += b_shifted_by_64.w[i - 1];
    }
    out.w[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  return out;
}

// candidate is < 2^69 (integer part up to 8 for cube roots of primes < 512,
// plus 64 fractional bits). Returns candidate^2 as U320.
U320 Square(uint64_t lo, uint64_t hi) {
  // (hi*2^64 + lo)^2 = lo^2 + 2*hi*lo*2^64 + hi^2*2^128
  U320 out;
  unsigned __int128 lo2 = static_cast<unsigned __int128>(lo) * lo;
  unsigned __int128 cross2 = (static_cast<unsigned __int128>(hi) * lo) << 1;  // hi < 2^6.
  unsigned __int128 hi2 = static_cast<unsigned __int128>(hi) * hi;

  unsigned __int128 acc = static_cast<uint64_t>(lo2);
  out.w[0] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(lo2 >> 64) + static_cast<uint64_t>(cross2);
  out.w[1] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(cross2 >> 64) + static_cast<uint64_t>(hi2);
  out.w[2] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(hi2 >> 64);
  out.w[3] = static_cast<uint64_t>(acc);
  return out;
}

// candidate^3 for candidate = hi:lo (< 2^69).
U320 Cube(uint64_t lo, uint64_t hi) {
  U320 sq = Square(lo, hi);
  // sq fits in ~138 bits -> words 0..2. Multiply by candidate.
  // sq * lo:
  U320 out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 prod = carry + static_cast<unsigned __int128>(sq.w[i]) * lo;
    out.w[i] = static_cast<uint64_t>(prod);
    carry = prod >> 64;
  }
  // + (sq * hi) << 64:
  U320 sq_hi;
  carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 prod = carry + static_cast<unsigned __int128>(sq.w[i]) * hi;
    sq_hi.w[i] = static_cast<uint64_t>(prod);
    carry = prod >> 64;
  }
  return AddShift64(out, sq_hi);
}

// Exact floor(frac(p^(1/k)) * 2^64) for k in {2, 3}.
uint64_t FracRootBits(uint32_t p, int k) {
  // Integer part of the root.
  uint64_t int_part = 0;
  while ((k == 2 ? (int_part + 1) * (int_part + 1) : (int_part + 1) * (int_part + 1) * (int_part + 1)) <=
         p) {
    ++int_part;
  }
  // Target: candidate^k <= p << (64*k) for candidate = (int_part << 64) | frac.
  U320 target;
  target.w[k] = p;  // p << (64*k)

  uint64_t frac = 0;
  for (int bit = 63; bit >= 0; --bit) {
    uint64_t trial = frac | (1ull << bit);
    U320 val = (k == 2) ? Square(trial, int_part) : Cube(trial, int_part);
    if (val.Compare(target) <= 0) {
      frac = trial;
    }
  }
  return frac;
}

constexpr uint32_t kPrimes[80] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
    313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409};

struct ShaConstants {
  uint32_t k256[64];
  uint32_t h256[8];
  uint64_t k512[80];
  uint64_t h512[8];

  ShaConstants() {
    for (int i = 0; i < 80; ++i) {
      k512[i] = FracRootBits(kPrimes[i], 3);
      if (i < 64) {
        k256[i] = static_cast<uint32_t>(k512[i] >> 32);
      }
    }
    for (int i = 0; i < 8; ++i) {
      uint64_t s = FracRootBits(kPrimes[i], 2);
      h256[i] = static_cast<uint32_t>(s >> 32);
      // SHA-512 initial values are the 64-bit fractional parts of the square
      // roots of the first 8 primes.
      h512[i] = s;
    }
  }
};

const ShaConstants& Constants() {
  static const ShaConstants c;
  return c;
}

inline uint32_t Rotr32(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint64_t Rotr64(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
}

// The portable compression function: the reference every other kernel must
// match bit for bit.
void ProcessBlock(uint32_t* state, const uint32_t* k, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBe32(block + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], cc = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t t1 = h + s1 + ch + k[i] + w[i];
    uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
    uint32_t maj = (a & b) ^ (a & cc) ^ (b & cc);
    uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = cc;
    cc = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += cc;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef NT_SHA256_SHANI
// The same compression on the x86 SHA extensions, for `n` consecutive blocks.
// The state lives in the ABEF/CDGH register pair that sha256rnds2 works on.
// Group g runs rounds 4g..4g+3 on message words W[4g..4g+3], held in
// m[g % 4], plus the derived constants k[4g..4g+3]; meanwhile sha256msg1 and
// sha256msg2 extend the schedule up to three groups ahead.
__attribute__((target("sha,sse4.1"))) void ProcessBlocksShaNi(uint32_t* state, const uint32_t* k,
                                                              const uint8_t* data, size_t n) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i m[4] = {_mm_shuffle_epi8(_mm_loadu_si128(in), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap)};
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i wk =
          _mm_add_epi32(m[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // Finish W[4g+4..4g+7]: add W[4g-3..4g], then sha256msg2.
        __m128i& next = m[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) {
        // Start W[4g+12..4g+15] from W[4g-4..4g+3].
        m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // NT_SHA256_SHANI

constexpr char kHexDigitsLower[] = "0123456789abcdef";

// Per thread, so concurrent hashing never races on it.
thread_local uint64_t sha256_blocks = 0;

}  // namespace

std::string DigestHex(const Digest& d) { return ToHex(d.data(), d.size()); }

std::string DigestShort(const Digest& d) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(kHexDigitsLower[d[i] >> 4]);
    out.push_back(kHexDigitsLower[d[i] & 0x0f]);
  }
  return out;
}

// ----------------------------------------------------------------- SHA-256

Sha256::Sha256() : Sha256(dispatched_kernel()) {}

Sha256::Sha256(Kernel k) : kernel_(k) {
  // The dispatched kernel is supported by construction; only ask CPUID for
  // an explicitly named other one.
  if (k != dispatched_kernel() && !Supported(k)) {
    std::fprintf(stderr, "Sha256: kernel %d is not supported on this CPU\n", static_cast<int>(k));
    std::abort();
  }
  const ShaConstants& c = Constants();
  for (int i = 0; i < 8; ++i) {
    state_[i] = c.h256[i];
  }
}

uint64_t Sha256::blocks_processed() { return sha256_blocks; }

bool Sha256::Supported(Kernel k) {
  if (k == Kernel::kPortable) {
    return true;
  }
#ifdef NT_SHA256_SHANI
  // May run before main (from a static initializer hashing), so initialize
  // the CPU model first; it is idempotent.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

Sha256::Kernel Sha256::dispatched_kernel() {
  static const Kernel kernel = Supported(Kernel::kShaNi) ? Kernel::kShaNi : Kernel::kPortable;
  return kernel;
}

void Sha256::Compress(const uint8_t* blocks, size_t n) {
  sha256_blocks += n;
  const uint32_t* k = Constants().k256;
#ifdef NT_SHA256_SHANI
  if (kernel_ == Kernel::kShaNi) {
    ProcessBlocksShaNi(state_.data(), k, blocks, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    ProcessBlock(state_.data(), k, blocks + 64 * i);
  }
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) {
      return;
    }
    Compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block goes to the kernel in one call; the tail is buffered.
  const size_t whole = len / 64;
  if (whole > 0) {
    Compress(data, whole);
    data += 64 * whole;
    len -= 64 * whole;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros up to byte 56, then the 64-bit length. When the 0x80 leaves
  // no room for the length, the zeros fill this block and one more follows.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    Compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  StoreBe64(buffer_.data() + 56, bit_len);
  Compress(buffer_.data(), 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    StoreBe32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

// ----------------------------------------------------------------- SHA-512

Sha512::Sha512() {
  const ShaConstants& c = Constants();
  for (int i = 0; i < 8; ++i) {
    state_[i] = c.h512[i];
  }
}

void Sha512::ProcessBlock(const uint8_t* block) {
  const ShaConstants& c = Constants();
  uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBe64(block + 8 * i);
  }
  for (int i = 16; i < 80; ++i) {
    uint64_t s0 = Rotr64(w[i - 15], 1) ^ Rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
    uint64_t s1 = Rotr64(w[i - 2], 19) ^ Rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint64_t a = state_[0], b = state_[1], cc = state_[2], d = state_[3];
  uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 80; ++i) {
    uint64_t s1 = Rotr64(e, 14) ^ Rotr64(e, 18) ^ Rotr64(e, 41);
    uint64_t ch = (e & f) ^ (~e & g);
    uint64_t t1 = h + s1 + ch + c.k512[i] + w[i];
    uint64_t s0 = Rotr64(a, 28) ^ Rotr64(a, 34) ^ Rotr64(a, 39);
    uint64_t maj = (a & b) ^ (a & cc) ^ (b & cc);
    uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = cc;
    cc = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += cc;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    if (buffer_len_ == 0 && len >= 128) {
      ProcessBlock(data);
      data += 128;
      len -= 128;
      continue;
    }
    size_t take = std::min(len, 128 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == 128) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Sha512::Output Sha512::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  // As SHA-256, with 128-byte blocks and a 128-bit length field whose high
  // 64 bits are zero for all inputs we hash.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 112) {
    std::memset(buffer_.data() + buffer_len_, 0, 128 - buffer_len_);
    ProcessBlock(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 120 - buffer_len_);
  StoreBe64(buffer_.data() + 120, bit_len);
  ProcessBlock(buffer_.data());
  buffer_len_ = 0;

  Output out;
  for (int i = 0; i < 8; ++i) {
    StoreBe64(out.data() + 8 * i, state_[i]);
  }
  return out;
}

Sha512::Output Sha512::Hash(const uint8_t* data, size_t len) {
  Sha512 h;
  h.Update(data, len);
  return h.Finalize();
}

}  // namespace nt
