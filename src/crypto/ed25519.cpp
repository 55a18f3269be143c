#include "src/crypto/ed25519.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/crypto/hash.h"

namespace nt {
namespace {

// ===========================================================================
// Field arithmetic over GF(p), p = 2^255 - 19. Elements are 5 limbs of 51
// bits each (little-endian limb order). Invariant maintained by all public
// helpers below: limbs < 2^52 on input and output.
// ===========================================================================

constexpr uint64_t kMask51 = (1ull << 51) - 1;

struct Fe {
  uint64_t l[5] = {0, 0, 0, 0, 0};
};

Fe FeFromInt(uint64_t v) {
  Fe r;
  r.l[0] = v & kMask51;
  r.l[1] = v >> 51;
  return r;
}

// Propagates carries so every limb drops below 2^52 (two passes settle any
// input with limbs < 2^63).
void FeCarry(Fe& a) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      uint64_t c = a.l[i] >> 51;
      a.l[i] &= kMask51;
      a.l[i + 1] += c;
    }
    uint64_t c = a.l[4] >> 51;
    a.l[4] &= kMask51;
    a.l[0] += 19 * c;
  }
}

// Single carry pass: restores the < 2^52 invariant for inputs with limbs
// < 2^57 (the worst case produced by add/sub on reduced operands and by the
// tail of the multiplication routines). Group arithmetic runs millions of
// these, so the second pass of FeCarry is worth skipping when the bound
// allows it.
void FeCarryOnce(Fe& a) {
  for (int i = 0; i < 4; ++i) {
    uint64_t c = a.l[i] >> 51;
    a.l[i] &= kMask51;
    a.l[i + 1] += c;
  }
  uint64_t c = a.l[4] >> 51;
  a.l[4] &= kMask51;
  a.l[0] += 19 * c;  // < 2^51 + 19 * 2^6: comfortably within the invariant.
}

Fe FeAdd(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) {
    r.l[i] = a.l[i] + b.l[i];
  }
  FeCarryOnce(r);  // Limbs < 2^53.
  return r;
}

// a - b, computed as a + 2p - b so limbs never underflow.
Fe FeSub(const Fe& a, const Fe& b) {
  // 2p in 51-bit limbs: limb0 = 2*(2^51 - 19), limbs 1..4 = 2*(2^51 - 1).
  static constexpr uint64_t kTwoP0 = 2 * ((1ull << 51) - 19);
  static constexpr uint64_t kTwoPi = 2 * ((1ull << 51) - 1);
  Fe r;
  r.l[0] = a.l[0] + kTwoP0 - b.l[0];
  for (int i = 1; i < 5; ++i) {
    r.l[i] = a.l[i] + kTwoPi - b.l[i];
  }
  FeCarryOnce(r);  // Limbs < 2^54.
  return r;
}

Fe FeNeg(const Fe& a) {
  Fe zero;
  return FeSub(zero, a);
}

Fe FeMul(const Fe& a, const Fe& b) {
  using U128 = unsigned __int128;
  const uint64_t a0 = a.l[0], a1 = a.l[1], a2 = a.l[2], a3 = a.l[3], a4 = a.l[4];
  const uint64_t b0 = b.l[0], b1 = b.l[1], b2 = b.l[2], b3 = b.l[3], b4 = b.l[4];

  U128 r0 = (U128)a0 * b0 + (U128)19 * ((U128)a1 * b4 + (U128)a2 * b3 + (U128)a3 * b2 + (U128)a4 * b1);
  U128 r1 = (U128)a0 * b1 + (U128)a1 * b0 +
            (U128)19 * ((U128)a2 * b4 + (U128)a3 * b3 + (U128)a4 * b2);
  U128 r2 = (U128)a0 * b2 + (U128)a1 * b1 + (U128)a2 * b0 + (U128)19 * ((U128)a3 * b4 + (U128)a4 * b3);
  U128 r3 = (U128)a0 * b3 + (U128)a1 * b2 + (U128)a2 * b1 + (U128)a3 * b0 + (U128)19 * ((U128)a4 * b4);
  U128 r4 = (U128)a0 * b4 + (U128)a1 * b3 + (U128)a2 * b2 + (U128)a3 * b1 + (U128)a4 * b0;

  Fe out;
  U128 c;
  c = r0 >> 51;
  out.l[0] = (uint64_t)r0 & kMask51;
  r1 += c;
  c = r1 >> 51;
  out.l[1] = (uint64_t)r1 & kMask51;
  r2 += c;
  c = r2 >> 51;
  out.l[2] = (uint64_t)r2 & kMask51;
  r3 += c;
  c = r3 >> 51;
  out.l[3] = (uint64_t)r3 & kMask51;
  r4 += c;
  c = r4 >> 51;
  out.l[4] = (uint64_t)r4 & kMask51;
  out.l[0] += 19 * (uint64_t)c;
  FeCarryOnce(out);
  return out;
}

// Dedicated squaring: exploits product symmetry (a_i*a_j counted twice) to
// halve the partial products relative to FeMul. Exponentiation chains spend
// almost all their time here.
Fe FeSquare(const Fe& a) {
  using U128 = unsigned __int128;
  const uint64_t a0 = a.l[0], a1 = a.l[1], a2 = a.l[2], a3 = a.l[3], a4 = a.l[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;

  U128 r0 = (U128)a0 * a0 + (U128)19 * ((U128)d1 * a4 + (U128)d2 * a3);
  U128 r1 = (U128)d0 * a1 + (U128)19 * ((U128)d2 * a4 + (U128)a3 * a3);
  U128 r2 = (U128)d0 * a2 + (U128)a1 * a1 + (U128)19 * ((U128)d3 * a4);
  U128 r3 = (U128)d0 * a3 + (U128)d1 * a2 + (U128)19 * ((U128)a4 * a4);
  U128 r4 = (U128)d0 * a4 + (U128)d1 * a3 + (U128)a2 * a2;

  Fe out;
  U128 c;
  c = r0 >> 51;
  out.l[0] = (uint64_t)r0 & kMask51;
  r1 += c;
  c = r1 >> 51;
  out.l[1] = (uint64_t)r1 & kMask51;
  r2 += c;
  c = r2 >> 51;
  out.l[2] = (uint64_t)r2 & kMask51;
  r3 += c;
  c = r3 >> 51;
  out.l[3] = (uint64_t)r3 & kMask51;
  r4 += c;
  c = r4 >> 51;
  out.l[4] = (uint64_t)r4 & kMask51;
  out.l[0] += 19 * (uint64_t)c;
  FeCarryOnce(out);
  return out;
}

// a^(2^n): n successive squarings.
Fe FeSquareTimes(Fe a, int n) {
  for (int i = 0; i < n; ++i) {
    a = FeSquare(a);
  }
  return a;
}

// Canonical 32-byte little-endian encoding (value fully reduced mod p).
void FeToBytes(uint8_t out[32], const Fe& in) {
  Fe t = in;
  FeCarry(t);
  // Compute q = floor(value / p) in {0,1} via the standard +19 ripple.
  uint64_t q = (t.l[0] + 19) >> 51;
  q = (t.l[1] + q) >> 51;
  q = (t.l[2] + q) >> 51;
  q = (t.l[3] + q) >> 51;
  q = (t.l[4] + q) >> 51;
  t.l[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    uint64_t c = t.l[i] >> 51;
    t.l[i] &= kMask51;
    t.l[i + 1] += c;
  }
  t.l[4] &= kMask51;  // Drop bit 255 (the subtraction of p happened via +19*q).

  uint64_t word0 = t.l[0] | (t.l[1] << 51);
  uint64_t word1 = (t.l[1] >> 13) | (t.l[2] << 38);
  uint64_t word2 = (t.l[2] >> 26) | (t.l[3] << 25);
  uint64_t word3 = (t.l[3] >> 39) | (t.l[4] << 12);
  uint64_t words[4] = {word0, word1, word2, word3};
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) {
      out[8 * w + i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
}

// Loads 255 bits little-endian (ignores the top bit of byte 31).
Fe FeFromBytes(const uint8_t in[32]) {
  uint64_t words[4];
  for (int w = 0; w < 4; ++w) {
    words[w] = 0;
    for (int i = 0; i < 8; ++i) {
      words[w] |= static_cast<uint64_t>(in[8 * w + i]) << (8 * i);
    }
  }
  Fe r;
  r.l[0] = words[0] & kMask51;
  r.l[1] = ((words[0] >> 51) | (words[1] << 13)) & kMask51;
  r.l[2] = ((words[1] >> 38) | (words[2] << 26)) & kMask51;
  r.l[3] = ((words[2] >> 25) | (words[3] << 39)) & kMask51;
  r.l[4] = (words[3] >> 12) & kMask51;
  return r;
}

bool FeIsZero(const Fe& a) {
  uint8_t bytes[32];
  FeToBytes(bytes, a);
  uint8_t acc = 0;
  for (uint8_t b : bytes) {
    acc |= b;
  }
  return acc == 0;
}

bool FeEqual(const Fe& a, const Fe& b) { return FeIsZero(FeSub(a, b)); }

// Low bit of the canonical encoding — the "sign" used by point compression.
int FeIsNegative(const Fe& a) {
  uint8_t bytes[32];
  FeToBytes(bytes, a);
  return bytes[0] & 1;
}

// base^e where e is a 256-bit little-endian exponent. Plain square-and-
// multiply; this reproduction does not need constant-time exponentiation.
Fe FePow(const Fe& base, const uint8_t e[32]) {
  Fe result = FeFromInt(1);
  for (int i = 255; i >= 0; --i) {
    result = FeSquare(result);
    if ((e[i / 8] >> (i % 8)) & 1) {
      result = FeMul(result, base);
    }
  }
  return result;
}

// Little-endian bytes of p = 2^255 - 19.
void PBytes(uint8_t out[32]) {
  out[0] = 0xed;
  for (int i = 1; i < 31; ++i) {
    out[i] = 0xff;
  }
  out[31] = 0x7f;
}

// Subtracts a small value from a little-endian byte integer in place.
void BytesSubSmall(uint8_t b[32], uint32_t v) {
  uint32_t borrow = v;
  for (int i = 0; i < 32 && borrow != 0; ++i) {
    uint32_t cur = b[i];
    uint32_t sub = borrow & 0xff;
    if (cur >= sub) {
      b[i] = static_cast<uint8_t>(cur - sub);
      borrow >>= 8;
    } else {
      b[i] = static_cast<uint8_t>(cur + 256 - sub);
      borrow = (borrow >> 8) + 1;
    }
  }
}

// Shifts a little-endian byte integer right by `n` bits (n < 8).
void BytesShiftRight(uint8_t b[32], int n) {
  for (int i = 0; i < 32; ++i) {
    uint8_t next = (i + 1 < 32) ? b[i + 1] : 0;
    b[i] = static_cast<uint8_t>((b[i] >> n) | (next << (8 - n)));
  }
}

// Shared prefix of the inversion and square-root chains: z^(2^250 - 1) and
// z^11, via the classic curve25519 addition chain (~250 squarings + 11
// multiplications, versus ~500 multiplications for generic square-and-
// multiply over these all-ones exponents). Point decompression runs one of
// these per point, so batch verification is fixed-cost-bound without it.
void FePow250Chain(const Fe& z, Fe* pow_250_1, Fe* z11) {
  Fe z2 = FeSquare(z);                     // z^2
  Fe z9 = FeMul(FeSquareTimes(z2, 2), z);  // z^9
  *z11 = FeMul(z9, z2);                    // z^11
  Fe z_5_0 = FeMul(FeSquare(*z11), z9);    // z^(2^5 - 1)
  Fe z_10_0 = FeMul(FeSquareTimes(z_5_0, 5), z_5_0);      // z^(2^10 - 1)
  Fe z_20_0 = FeMul(FeSquareTimes(z_10_0, 10), z_10_0);   // z^(2^20 - 1)
  Fe z_40_0 = FeMul(FeSquareTimes(z_20_0, 20), z_20_0);   // z^(2^40 - 1)
  Fe z_50_0 = FeMul(FeSquareTimes(z_40_0, 10), z_10_0);   // z^(2^50 - 1)
  Fe z_100_0 = FeMul(FeSquareTimes(z_50_0, 50), z_50_0);  // z^(2^100 - 1)
  Fe z_200_0 = FeMul(FeSquareTimes(z_100_0, 100), z_100_0);  // z^(2^200 - 1)
  *pow_250_1 = FeMul(FeSquareTimes(z_200_0, 50), z_50_0);    // z^(2^250 - 1)
}

// z^(p - 2) = z^(2^255 - 21) = (z^(2^250 - 1))^(2^5) * z^11.
Fe FeInvert(const Fe& a) {
  Fe pow_250_1, z11;
  FePow250Chain(a, &pow_250_1, &z11);
  return FeMul(FeSquareTimes(pow_250_1, 5), z11);
}

// z^((p - 5) / 8) = z^(2^252 - 3) = (z^(2^250 - 1))^(2^2) * z.
Fe FePowP58(const Fe& a) {
  Fe pow_250_1, z11;
  FePow250Chain(a, &pow_250_1, &z11);
  return FeMul(FeSquareTimes(pow_250_1, 2), a);
}

// ===========================================================================
// Group operations: twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 in
// extended coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
// ===========================================================================

struct Ge {
  Fe x, y, z, t;
};

struct CurveConstants {
  Fe d;
  Fe d2;       // 2d
  Fe sqrt_m1;  // sqrt(-1)
  Ge base;     // the RFC 8032 base point (x, 4/5) with even x
  Ge identity;

  CurveConstants();
};

// Decompression against explicit constants: also used while constructing the
// constants themselves (the base point), where calling Curve() would
// re-enter the magic-static initialization.
bool GeDecompressWith(const CurveConstants& c, Ge& out, const uint8_t in[32]);

const CurveConstants& Curve() {
  static const CurveConstants c;
  return c;
}

Ge GeIdentity() {
  Ge r;
  r.x = Fe();           // 0
  r.y = FeFromInt(1);   // 1
  r.z = FeFromInt(1);   // 1
  r.t = Fe();           // 0
  return r;
}

// Complete unified addition (add-2008-hwcd-3 for a = -1); also valid when
// p == q, so doubling reuses it.
Ge GeAdd(const Ge& p, const Ge& q) {
  const CurveConstants& c = Curve();
  Fe a = FeMul(FeSub(p.y, p.x), FeSub(q.y, q.x));
  Fe b = FeMul(FeAdd(p.y, p.x), FeAdd(q.y, q.x));
  Fe cc = FeMul(FeMul(p.t, c.d2), q.t);
  Fe d = FeMul(FeAdd(p.z, p.z), q.z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(d, cc);
  Fe g = FeAdd(d, cc);
  Fe h = FeAdd(b, a);
  Ge r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// Dedicated doubling (dbl-2008-hwcd for a = -1): 4 squarings + 4
// multiplications, versus 9 multiplications through the unified addition.
// Scalar-multiplication ladders are doubling-dominated, so this matters.
Ge GeDouble(const Ge& p) {
  Fe a = FeSquare(p.x);
  Fe b = FeSquare(p.y);
  Fe zz = FeSquare(p.z);
  Fe c = FeAdd(zz, zz);
  Fe e = FeSub(FeSquare(FeAdd(p.x, p.y)), FeAdd(a, b));  // 2xy
  Fe g = FeSub(b, a);                                    // a*x^2 + y^2, a = -1
  Fe f = FeSub(g, c);
  Fe h = FeSub(Fe(), FeAdd(a, b));  // a*x^2 - y^2
  Ge r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

Ge GeNeg(const Ge& p) {
  Ge r;
  r.x = FeNeg(p.x);
  r.y = p.y;
  r.z = p.z;
  r.t = FeNeg(p.t);
  return r;
}

// [8]P: clears the small-order (torsion) component of a point. Verification
// equations are checked after multiplying the residual by the cofactor, so a
// residual consisting only of an order-1/2/4/8 component counts as zero —
// the "cofactored" verification of RFC 8032, which is what makes batch and
// single verification accept exactly the same signature sets.
Ge GeMulCofactor(const Ge& p) { return GeDouble(GeDouble(GeDouble(p))); }

// Precomputed addend (ref10's "cached" form): storing (Y+X, Y-X, Z, 2dT)
// makes each addition one multiplication cheaper than the general formula
// (the 2dT product is amortized into the table build) and skips the
// operand-side add/sub pair. Negation is free: swap the first two fields and
// flip the sign of the T term, which GeSubCached does implicitly.
struct GeCached {
  Fe yplusx, yminusx, z, t2d;
};

GeCached GeToCached(const Ge& p) {
  GeCached c;
  c.yplusx = FeAdd(p.y, p.x);
  c.yminusx = FeSub(p.y, p.x);
  c.z = p.z;
  c.t2d = FeMul(p.t, Curve().d2);
  return c;
}

Ge GeAddCached(const Ge& p, const GeCached& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.yminusx);
  Fe b = FeMul(FeAdd(p.y, p.x), q.yplusx);
  Fe cc = FeMul(p.t, q.t2d);
  Fe d = FeMul(FeAdd(p.z, p.z), q.z);
  Fe e = FeSub(b, a);
  Fe f = FeSub(d, cc);
  Fe g = FeAdd(d, cc);
  Fe h = FeAdd(b, a);
  Ge r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// p + (-q) without materializing -q: -q has yplusx/yminusx swapped and t2d
// negated, which only flips the sign of cc below.
Ge GeSubCached(const Ge& p, const GeCached& q) {
  Fe a = FeMul(FeSub(p.y, p.x), q.yplusx);
  Fe b = FeMul(FeAdd(p.y, p.x), q.yminusx);
  Fe cc = FeMul(p.t, q.t2d);
  Fe d = FeMul(FeAdd(p.z, p.z), q.z);
  Fe e = FeSub(b, a);
  Fe f = FeAdd(d, cc);
  Fe g = FeSub(d, cc);
  Fe h = FeAdd(b, a);
  Ge r;
  r.x = FeMul(e, f);
  r.y = FeMul(g, h);
  r.t = FeMul(e, h);
  r.z = FeMul(f, g);
  return r;
}

// Identity in extended coordinates: X = 0 and Y = Z (then T = XY/Z = 0).
bool GeIsIdentity(const Ge& p) { return FeIsZero(p.x) && FeEqual(p.y, p.z); }

// [s]P for a 256-bit little-endian scalar, MSB-first double-and-add.
Ge GeScalarMult(const uint8_t s[32], const Ge& p) {
  Ge r = GeIdentity();
  for (int i = 255; i >= 0; --i) {
    r = GeDouble(r);
    if ((s[i / 8] >> (i % 8)) & 1) {
      r = GeAdd(r, p);
    }
  }
  return r;
}

// Precomputed radix-16 table for the base point: window i, entry j-1 holds
// [j * 16^i]B for j in 1..15, in cached form. 64 windows cover a 256-bit
// scalar, so a fixed-base multiplication is at most 64 cached additions and
// no doublings.
using BaseWindowTable = std::array<std::array<GeCached, 15>, 64>;

const BaseWindowTable& BaseTable() {
  static const BaseWindowTable table = [] {
    BaseWindowTable t;
    Ge power = Curve().base;  // [16^i]B for the current window.
    for (int i = 0; i < 64; ++i) {
      Ge multiple = power;
      for (int j = 0; j < 15; ++j) {
        t[i][j] = GeToCached(multiple);
        multiple = GeAdd(multiple, power);
      }
      power = multiple;  // After 15 additions: [16 * 16^i]B.
    }
    return t;
  }();
  return table;
}

// [s]B via the precomputed window table.
Ge GeScalarMultBase(const uint8_t s[32]) {
  const BaseWindowTable& table = BaseTable();
  Ge r = GeIdentity();
  for (int i = 0; i < 64; ++i) {
    uint8_t nibble = (s[i / 2] >> (4 * (i & 1))) & 0x0f;
    if (nibble != 0) {
      r = GeAddCached(r, table[i][nibble - 1]);
    }
  }
  return r;
}

void GeCompress(uint8_t out[32], const Ge& p) {
  Fe zinv = FeInvert(p.z);
  Fe x = FeMul(p.x, zinv);
  Fe y = FeMul(p.y, zinv);
  FeToBytes(out, y);
  out[31] = static_cast<uint8_t>(out[31] | (FeIsNegative(x) << 7));
}

// Decompresses an encoded point. Returns false for off-curve or non-canonical
// encodings (y >= p), per strict validation.
bool GeDecompress(Ge& out, const uint8_t in[32]) {
  return GeDecompressWith(Curve(), out, in);
}

// Decompression memoized for public keys: a protocol verifier sees the same
// small committee key set on virtually every signature, and the square root
// in decompression (~252 squarings) is a large fraction of a verify. Only
// successful strict decodings are cached (keyed by the exact 32-byte
// encoding), so rejection behaviour is identical to GeDecompress. The map is
// bounded and simply reset when full — any real working set is a committee,
// orders of magnitude below the cap.
bool GeDecompressKey(Ge& out, const uint8_t in[32]) {
  struct KeyHash {
    size_t operator()(const std::array<uint8_t, 32>& k) const {
      uint64_t v;  // Encodings of valid points are uniform enough to slice.
      std::memcpy(&v, k.data(), sizeof(v));
      return static_cast<size_t>(v);
    }
  };
  static std::unordered_map<std::array<uint8_t, 32>, Ge, KeyHash> cache;
  constexpr size_t kMaxEntries = 4096;

  std::array<uint8_t, 32> key;
  std::memcpy(key.data(), in, 32);
  auto it = cache.find(key);
  if (it != cache.end()) {
    out = it->second;
    return true;
  }
  if (!GeDecompress(out, in)) {
    return false;
  }
  if (cache.size() >= kMaxEntries) {
    cache.clear();
  }
  cache.emplace(key, out);
  return true;
}

bool GeDecompressWith(const CurveConstants& c, Ge& out, const uint8_t in[32]) {
  // Reject y >= p (non-canonical field encoding).
  uint8_t p_bytes[32];
  PBytes(p_bytes);
  uint8_t y_bytes[32];
  std::memcpy(y_bytes, in, 32);
  y_bytes[31] &= 0x7f;
  bool y_lt_p = false;
  for (int i = 31; i >= 0; --i) {
    if (y_bytes[i] != p_bytes[i]) {
      y_lt_p = y_bytes[i] < p_bytes[i];
      break;
    }
  }
  if (!y_lt_p) {
    return false;
  }

  int sign = in[31] >> 7;
  Fe y = FeFromBytes(in);
  Fe y2 = FeSquare(y);
  Fe u = FeSub(y2, FeFromInt(1));            // y^2 - 1
  Fe v = FeAdd(FeMul(y2, c.d), FeFromInt(1));  // d y^2 + 1

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8).
  Fe v3 = FeMul(FeSquare(v), v);
  Fe v7 = FeMul(FeSquare(v3), v);
  Fe x = FeMul(FeMul(u, v3), FePowP58(FeMul(u, v7)));

  Fe vx2 = FeMul(v, FeSquare(x));
  if (!FeEqual(vx2, u)) {
    if (FeEqual(vx2, FeNeg(u))) {
      x = FeMul(x, c.sqrt_m1);
    } else {
      return false;
    }
  }
  if (FeIsZero(x) && sign == 1) {
    return false;  // -0 is not a valid encoding.
  }
  if (FeIsNegative(x) != sign) {
    x = FeNeg(x);
  }
  out.x = x;
  out.y = y;
  out.z = FeFromInt(1);
  out.t = FeMul(x, y);
  return true;
}

CurveConstants::CurveConstants() {
  // d = -121665 / 121666 mod p.
  d = FeNeg(FeMul(FeFromInt(121665), FeInvert(FeFromInt(121666))));
  d2 = FeAdd(d, d);
  // sqrt(-1) = 2^((p-1)/4) mod p.
  uint8_t e[32];
  PBytes(e);
  BytesSubSmall(e, 1);
  BytesShiftRight(e, 2);
  sqrt_m1 = FePow(FeFromInt(2), e);
  identity = GeIdentity();
  // Base point: y = 4/5, even x (sign bit 0).
  Fe by = FeMul(FeFromInt(4), FeInvert(FeFromInt(5)));
  uint8_t enc[32];
  FeToBytes(enc, by);
  bool ok = GeDecompressWith(*this, base, enc);
  (void)ok;  // The base point always decodes; pinned by tests.
}

// ===========================================================================
// Scalar arithmetic modulo L = 2^252 + 27742317777372353535851937790883648493.
// Scalars are 4 little-endian 64-bit words. Reduction is an exact 512-bit
// MSB-first binary reduction (shift-and-conditional-subtract).
// ===========================================================================

struct Sc {
  uint64_t w[4] = {0, 0, 0, 0};
};

const Sc& GroupOrder() {
  // Little-endian bytes of L (standard constant, pinned by [L]B == identity
  // in tests).
  static const Sc l = [] {
    const uint8_t bytes[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
                               0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
    Sc s;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 8; ++j) {
        s.w[i] |= static_cast<uint64_t>(bytes[8 * i + j]) << (8 * j);
      }
    }
    return s;
  }();
  return l;
}

int ScCompare(const Sc& a, const Sc& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) {
      return a.w[i] < b.w[i] ? -1 : 1;
    }
  }
  return 0;
}

void ScSubInPlace(Sc& a, const Sc& b) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t bi = b.w[i] + borrow;
    uint64_t next_borrow = (bi < borrow) || (a.w[i] < bi) ? 1 : 0;
    a.w[i] -= bi;
    borrow = next_borrow;
  }
}

// Reduces a 512-bit little-endian integer (as 8 words) modulo L by folding
// at bit 252: writing v = hi * 2^252 + lo and using 2^252 == -delta (mod L)
// with delta = L - 2^252 (125 bits), v == lo - hi * delta. Each fold shaves
// ~127 bits (512 -> 385 -> 258 -> 131), so three folds and one final
// correction replace the former 512-step shift-and-subtract loop. The
// intermediate value is kept as (magnitude, sign) because a fold can go
// negative.
Sc ScReduceWide(const uint64_t wide[8]) {
  // delta = L - 2^252, two words.
  static constexpr uint64_t kDelta[2] = {0x5812631a5cf5d3edull, 0x14def9dea2f79cd6ull};

  uint64_t v[8];
  std::memcpy(v, wide, sizeof(v));
  bool negative = false;

  // Loop while v >= 2^252 (bit 252 lives at word 3, bit 60).
  while (v[7] | v[6] | v[5] | v[4] | (v[3] >> 60)) {
    // hi = v >> 252 (up to 5 words), lo = v mod 2^252.
    uint64_t hi[5];
    for (int i = 0; i < 5; ++i) {
      uint64_t lo_part = v[i + 3] >> 60;
      uint64_t hi_part = (i + 4 < 8) ? (v[i + 4] << 4) : 0;
      hi[i] = lo_part | hi_part;
    }
    uint64_t lo[8] = {v[0], v[1], v[2], v[3] & ((1ull << 60) - 1), 0, 0, 0, 0};

    // prod = hi * delta, at most 7 words.
    uint64_t prod[8] = {0};
    using U128 = unsigned __int128;
    for (int i = 0; i < 5; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < 2; ++j) {
        U128 cur = (U128)hi[i] * kDelta[j] + prod[i + j] + carry;
        prod[i + j] = (uint64_t)cur;
        carry = (uint64_t)(cur >> 64);
      }
      prod[i + 2] += carry;
    }

    // v = |lo - prod|, tracking the sign flip when prod > lo.
    int cmp = 0;
    for (int i = 7; i >= 0; --i) {
      if (lo[i] != prod[i]) {
        cmp = lo[i] < prod[i] ? -1 : 1;
        break;
      }
    }
    const uint64_t* big = cmp < 0 ? prod : lo;
    const uint64_t* small = cmp < 0 ? lo : prod;
    uint64_t borrow = 0;
    for (int i = 0; i < 8; ++i) {
      uint64_t si = small[i] + borrow;
      uint64_t next_borrow = (si < borrow) || (big[i] < si) ? 1 : 0;
      v[i] = big[i] - si;
      borrow = next_borrow;
    }
    if (cmp < 0) {
      negative = !negative;
    }
  }

  Sc r;
  for (int i = 0; i < 4; ++i) {
    r.w[i] = v[i];
  }
  if (negative && !(r.w[0] == 0 && r.w[1] == 0 && r.w[2] == 0 && r.w[3] == 0)) {
    Sc l = GroupOrder();
    ScSubInPlace(l, r);  // r < 2^252 < L, so L - r is in (0, L).
    r = l;
  }
  return r;
}

Sc ScFromBytesWide(const uint8_t in[64]) {
  uint64_t wide[8] = {0};
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      wide[i] |= static_cast<uint64_t>(in[8 * i + j]) << (8 * j);
    }
  }
  return ScReduceWide(wide);
}

Sc ScFromBytes(const uint8_t in[32]) {
  uint8_t wide[64] = {0};
  std::memcpy(wide, in, 32);
  return ScFromBytesWide(wide);
}

void ScToBytes(uint8_t out[32], const Sc& s) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(s.w[i] >> (8 * j));
    }
  }
}

// (a * b + c) mod L. a and b may be any 256-bit values (e.g. the clamped
// secret scalar); the 512-bit product plus c is reduced exactly.
Sc ScMulAdd(const Sc& a, const Sc& b, const Sc& c) {
  using U128 = unsigned __int128;
  uint64_t wide[8] = {0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      U128 cur = (U128)a.w[i] * b.w[j] + wide[i + j] + carry;
      wide[i + j] = (uint64_t)cur;
      carry = (uint64_t)(cur >> 64);
    }
    wide[i + 4] += carry;
  }
  // Add c.
  uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    U128 cur = (U128)wide[i] + (i < 4 ? c.w[i] : 0) + carry;
    wide[i] = (uint64_t)cur;
    carry = (uint64_t)(cur >> 64);
  }
  return ScReduceWide(wide);
}

// ===========================================================================
// Interleaved Straus multi-scalar multiplication: evaluates sum_i [s_i]P_i
// with one doubling chain shared by every term (253 doublings total, however
// many points) and per-point tables of small odd multiples. Scalars are
// recoded into signed sliding windows (odd digits in {+-1, +-3, ..., +-15},
// nonzero-digit density ~1/6), so each point costs ~8 table additions plus
// ~|s|/6 window additions — versus 256 doublings *per point* for repeated
// double-and-add. Negating an Edwards point is free (negate x, t), which is
// what makes the signed recoding profitable.
// ===========================================================================

// Signed sliding-window recoding (the classic ed25519 "slide"): rewrites the
// scalar bits as digits r[i] in {0, +-1, +-3, ..., +-15} with r[i] != 0 only
// at window starts, such that sum r[i] 2^i equals the scalar.
void SlideRecode(int8_t r[256], const uint8_t s[32]) {
  for (int i = 0; i < 256; ++i) {
    r[i] = static_cast<int8_t>((s[i >> 3] >> (i & 7)) & 1);
  }
  for (int i = 0; i < 256; ++i) {
    if (r[i] == 0) {
      continue;
    }
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (r[i + b] == 0) {
        continue;
      }
      if (r[i] + (r[i + b] << b) <= 15) {
        r[i] = static_cast<int8_t>(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -15) {
        r[i] = static_cast<int8_t>(r[i] - (r[i + b] << b));
        for (int k = i + b; k < 256; ++k) {
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

struct MsmTerm {
  std::array<GeCached, 8> table;  // [1]P, [3]P, [5]P, ..., [15]P.
  int8_t naf[256];
  int top;  // Highest index with a nonzero digit; -1 if the scalar is 0.
};

MsmTerm MakeMsmTerm(const Ge& p, const Sc& s) {
  MsmTerm t;
  uint8_t scalar[32];
  ScToBytes(scalar, s);
  SlideRecode(t.naf, scalar);
  GeCached p2 = GeToCached(GeDouble(p));
  Ge cur = p;
  t.table[0] = GeToCached(cur);
  for (int j = 1; j < 8; ++j) {
    cur = GeAddCached(cur, p2);
    t.table[j] = GeToCached(cur);
  }
  t.top = -1;
  for (int i = 255; i >= 0; --i) {
    if (t.naf[i] != 0) {
      t.top = i;
      break;
    }
  }
  return t;
}

Ge MsmEvaluate(const std::vector<MsmTerm>& terms) {
  int top = -1;
  for (const MsmTerm& t : terms) {
    top = std::max(top, t.top);
  }
  Ge acc = GeIdentity();
  for (int i = top; i >= 0; --i) {
    if (i != top) {
      acc = GeDouble(acc);
    }
    for (const MsmTerm& t : terms) {
      int8_t digit = t.naf[i];
      if (digit > 0) {
        acc = GeAddCached(acc, t.table[digit >> 1]);
      } else if (digit < 0) {
        acc = GeSubCached(acc, t.table[(-digit) >> 1]);
      }
    }
  }
  return acc;
}

// ===========================================================================
// Batch verification (RFC 8032 §8.2 style). Per-item prework decodes the
// points, rejects S >= L, and computes k = H(R || A || M) mod L; the
// cofactored batch equation with 128-bit random coefficients z_i then checks
// all items at once. Bisection localizes failures.
// ===========================================================================

// Precomputed per-item state that survives across bisection rounds.
struct BatchPre {
  Ge a;       // Decoded public key A.
  Ge r;       // Decoded commitment R.
  Sc s;       // Signature scalar S (< L, checked).
  Sc k;       // Challenge H(R || A || M) mod L.
  uint8_t pk[32];
  uint8_t sig[64];
};

bool ScIsZero(const Sc& a) { return (a.w[0] | a.w[1] | a.w[2] | a.w[3]) == 0; }

// Checks [8]([sum z_i s_i]B - sum [z_i k_i]A_i - sum [z_i]R_i) == identity
// for the given items. The z_i are derived from a transcript of the subset
// (Fiat-Shamir style), so results are deterministic; the challenge k_i binds
// the message, so hashing (pk, sig, k) suffices.
//
// The cofactor multiplication is load-bearing for consistency with single
// verification: without it, an adversarial signature whose residual is a
// small-order point T (e.g. R' = R + T) would make the batch verdict depend
// on z_i mod 8 — i.e. on the exact flush composition, which differs across
// delivery paths and would let honest validators reach different verdicts
// for the same certificate. Multiplying by 8 clears every torsion component
// on both the batch and single paths, so the two accept the same signatures
// (up to the 2^-128 z-collision, which bisection resolves to the single
// equation anyway).
bool BatchEquationHolds(const std::vector<const BatchPre*>& items) {
  Sha512 transcript;
  transcript.Update("nt-ed25519-batch");
  for (const BatchPre* item : items) {
    uint8_t k_bytes[32];
    ScToBytes(k_bytes, item->k);
    transcript.Update(item->pk, 32);
    transcript.Update(item->sig, 64);
    transcript.Update(k_bytes, 32);
  }
  Sha512::Output seed = transcript.Finalize();

  Sc c;  // sum z_i s_i mod L.
  std::vector<MsmTerm> terms;
  terms.reserve(2 * items.size() + 1);
  Sha512::Output z_block{};  // One 64-byte hash yields four 128-bit z_i.
  for (size_t i = 0; i < items.size(); ++i) {
    if (i % 4 == 0) {
      Sha512 h;
      h.Update(seed.data(), seed.size());
      uint8_t index[8];
      for (int b = 0; b < 8; ++b) {
        index[b] = static_cast<uint8_t>((i / 4) >> (8 * b));
      }
      h.Update(index, 8);
      z_block = h.Finalize();
    }
    const uint8_t* z_bytes = z_block.data() + 16 * (i % 4);
    Sc z;
    for (int wi = 0; wi < 2; ++wi) {
      for (int b = 0; b < 8; ++b) {
        z.w[wi] |= static_cast<uint64_t>(z_bytes[8 * wi + b]) << (8 * b);
      }
    }
    if (ScIsZero(z)) {
      z.w[0] = 1;  // z must be invertible mod L (probability 2^-128).
    }
    c = ScMulAdd(z, items[i]->s, c);
    Sc zk = ScMulAdd(z, items[i]->k, Sc{});
    terms.push_back(MakeMsmTerm(GeNeg(items[i]->a), zk));
    terms.push_back(MakeMsmTerm(GeNeg(items[i]->r), z));
  }
  // The [c]B term goes through the fixed-base window table (64 additions,
  // no table build) rather than the generic MSM.
  uint8_t c_bytes[32];
  ScToBytes(c_bytes, c);
  Ge residual = GeAdd(MsmEvaluate(terms), GeScalarMultBase(c_bytes));
  return GeIsIdentity(GeMulCofactor(residual));
}

// The cofactored single-signature equation [8]([S]B - R - [k]A) == identity
// on precomputed state. Must match Ed25519Verify exactly: bisection leaves
// land here, and their verdicts are the contract between batch and single
// verification.
bool SingleEquationHolds(const BatchPre& item) {
  uint8_t s_bytes[32];
  ScToBytes(s_bytes, item.s);
  uint8_t k_bytes[32];
  ScToBytes(k_bytes, item.k);
  Ge lhs = GeScalarMultBase(s_bytes);
  Ge rhs = GeAdd(item.r, GeScalarMult(k_bytes, item.a));
  return GeIsIdentity(GeMulCofactor(GeAdd(lhs, GeNeg(rhs))));
}

// Batch check over `items`, writing per-item verdicts through `out` (indexed
// by each item's original position). On batch failure, bisects; leaves fall
// back to the exact single-signature equation so verdicts agree with
// Ed25519Verify even in the astronomically unlikely event of a z collision.
void BatchVerifyRange(const std::vector<const BatchPre*>& items,
                      const std::vector<size_t>& positions, std::vector<bool>& out) {
  if (items.empty()) {
    return;
  }
  if (items.size() == 1) {
    out[positions[0]] = SingleEquationHolds(*items[0]);
    return;
  }
  if (BatchEquationHolds(items)) {
    for (size_t pos : positions) {
      out[pos] = true;
    }
    return;
  }
  size_t mid = items.size() / 2;
  std::vector<const BatchPre*> left(items.begin(), items.begin() + mid);
  std::vector<size_t> left_pos(positions.begin(), positions.begin() + mid);
  std::vector<const BatchPre*> right(items.begin() + mid, items.end());
  std::vector<size_t> right_pos(positions.begin() + mid, positions.end());
  BatchVerifyRange(left, left_pos, out);
  BatchVerifyRange(right, right_pos, out);
}

// ===========================================================================
// RFC 8032 signing / verification.
// ===========================================================================

struct ExpandedKey {
  uint8_t scalar[32];  // Clamped secret scalar a.
  uint8_t prefix[32];  // Nonce-derivation prefix.
  Ed25519PublicKey pk;
};

ExpandedKey Expand(const Ed25519Seed& seed) {
  ExpandedKey key;
  Sha512::Output h = Sha512::Hash(seed.data(), seed.size());
  std::memcpy(key.scalar, h.data(), 32);
  std::memcpy(key.prefix, h.data() + 32, 32);
  key.scalar[0] &= 248;
  key.scalar[31] &= 127;
  key.scalar[31] |= 64;
  Ge a = GeScalarMultBase(key.scalar);
  GeCompress(key.pk.data(), a);
  return key;
}

}  // namespace

Ed25519PublicKey Ed25519Public(const Ed25519Seed& seed) { return Expand(seed).pk; }

Ed25519Signature Ed25519Sign(const Ed25519Seed& seed, const uint8_t* msg, size_t len) {
  ExpandedKey key = Expand(seed);

  Sha512 h1;
  h1.Update(key.prefix, 32);
  h1.Update(msg, len);
  Sha512::Output r_hash = h1.Finalize();
  Sc r = ScFromBytesWide(r_hash.data());

  uint8_t r_bytes[32];
  ScToBytes(r_bytes, r);
  Ge r_point = GeScalarMultBase(r_bytes);
  uint8_t r_enc[32];
  GeCompress(r_enc, r_point);

  Sha512 h2;
  h2.Update(r_enc, 32);
  h2.Update(key.pk.data(), 32);
  h2.Update(msg, len);
  Sha512::Output k_hash = h2.Finalize();
  Sc k = ScFromBytesWide(k_hash.data());

  Sc a = ScFromBytes(key.scalar);  // a mod L; same point since B has order L.
  Sc s = ScMulAdd(k, a, r);

  Ed25519Signature sig;
  std::memcpy(sig.data(), r_enc, 32);
  ScToBytes(sig.data() + 32, s);
  return sig;
}

bool Ed25519Verify(const Ed25519PublicKey& pk, const uint8_t* msg, size_t len,
                   const Ed25519Signature& sig) {
  // Reject S >= L (signature malleability).
  Sc s;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      s.w[i] |= static_cast<uint64_t>(sig[32 + 8 * i + j]) << (8 * j);
    }
  }
  if (ScCompare(s, GroupOrder()) >= 0) {
    return false;
  }

  Ge a_point;
  if (!GeDecompressKey(a_point, pk.data())) {
    return false;
  }
  Ge r_point;
  if (!GeDecompress(r_point, sig.data())) {
    return false;
  }

  Sha512 h;
  h.Update(sig.data(), 32);
  h.Update(pk.data(), 32);
  h.Update(msg, len);
  Sha512::Output k_hash = h.Finalize();
  Sc k = ScFromBytesWide(k_hash.data());
  uint8_t k_bytes[32];
  ScToBytes(k_bytes, k);

  // Cofactored check: [8]([S]B - R - [k]A) == identity (the "[8][S]B ==
  // [8]R + [8][k]A" form RFC 8032 permits). Multiplying by the cofactor
  // clears small-order components, so this accepts exactly the same
  // signature sets as the cofactored batch equation — adversarial torsion
  // offsets in R or A cannot make the two paths disagree.
  Ge lhs = GeScalarMultBase(sig.data() + 32);
  Ge rhs = GeAdd(r_point, GeScalarMult(k_bytes, a_point));
  return GeIsIdentity(GeMulCofactor(GeAdd(lhs, GeNeg(rhs))));
}

std::vector<bool> Ed25519BatchVerify(const Ed25519BatchItem* items, size_t n) {
  std::vector<bool> out(n, false);
  if (n == 0) {
    return out;
  }
  // Per-item prework: strict decoding and the challenge hash. Items that
  // fail here are invalid regardless of the batch equation and are excluded
  // from it, so one garbage signature cannot force a full bisection.
  std::vector<BatchPre> pre(n);
  std::vector<const BatchPre*> candidates;
  std::vector<size_t> positions;
  candidates.reserve(n);
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Ed25519BatchItem& item = items[i];
    Sc s;
    for (int wi = 0; wi < 4; ++wi) {
      for (int b = 0; b < 8; ++b) {
        s.w[wi] |= static_cast<uint64_t>(item.sig[32 + 8 * wi + b]) << (8 * b);
      }
    }
    if (ScCompare(s, GroupOrder()) >= 0) {
      continue;  // Malleable S >= L: rejected, same as Ed25519Verify.
    }
    BatchPre& p = pre[i];
    if (!GeDecompressKey(p.a, item.pk.data()) || !GeDecompress(p.r, item.sig.data())) {
      continue;
    }
    p.s = s;
    Sha512 h;
    h.Update(item.sig.data(), 32);
    h.Update(item.pk.data(), 32);
    h.Update(item.msg, item.len);
    Sha512::Output k_hash = h.Finalize();
    p.k = ScFromBytesWide(k_hash.data());
    std::memcpy(p.pk, item.pk.data(), 32);
    std::memcpy(p.sig, item.sig.data(), 64);
    candidates.push_back(&p);
    positions.push_back(i);
  }
  BatchVerifyRange(candidates, positions, out);
  return out;
}

Ed25519PublicKey Ed25519ScalarMultBase(const std::array<uint8_t, 32>& scalar) {
  // Cross-check the precomputed-table path against the generic ladder: the
  // table is load-bearing for Sign/Verify, so the test hook validates both.
  Ge p = GeScalarMultBase(scalar.data());
  Ge q = GeScalarMult(scalar.data(), Curve().base);
  Ed25519PublicKey out;
  GeCompress(out.data(), p);
  Ed25519PublicKey check;
  GeCompress(check.data(), q);
  if (out != check) {
    return Ed25519PublicKey{};  // Impossible unless the table is corrupt.
  }
  return out;
}

bool Ed25519PointOnCurve(const std::array<uint8_t, 32>& encoded) {
  Ge p;
  return GeDecompress(p, encoded.data());
}

std::array<uint8_t, 32> Ed25519GroupOrder() {
  std::array<uint8_t, 32> out{};
  ScToBytes(out.data(), GroupOrder());
  return out;
}

}  // namespace nt
