// Deterministic random number generation. Every stochastic component
// (latency jitter, client arrivals, key generation, fault injection) draws
// from its own `Rng` derived from a root seed plus a string label, so adding
// a consumer never perturbs the stream seen by another.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string_view>

#include "src/common/bytes.h"

namespace nt {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Derives an independent child stream from this generator's seed space and
  // a label. Stable across runs for the same (seed, label).
  static Rng Derive(uint64_t root_seed, std::string_view label) {
    // FNV-1a over the label, mixed with the root seed.
    return Rng(SplitMix(root_seed ^ Fnv1a(label)));
  }

  uint64_t NextU64() { return engine_(); }

  // Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n) {
    std::uniform_int_distribution<uint64_t> dist(0, n - 1);
    return dist(engine_);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  // Exponential with the given mean (> 0).
  double NextExponential(double mean) {
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
  }

  bool NextBool(double p_true) { return NextDouble() < p_true; }

  std::mt19937_64& engine() { return engine_; }

 private:
  static uint64_t SplitMix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::mt19937_64 engine_;
};

}  // namespace nt

#endif  // SRC_COMMON_RNG_H_
