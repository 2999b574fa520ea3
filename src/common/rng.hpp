#pragma once

/// \file rng.hpp
/// Deterministic, seedable random number generation (xoshiro256**).
/// All stochastic choices in AEQP (synthetic structures, property tests)
/// flow through this generator so that runs are reproducible bit-for-bit.

#include <cstdint>

namespace aeqp {

/// One SplitMix64 step: advance `x` by the golden gamma and finalize. It
/// seeds Rng and hashes the deterministic jitter draws that must not touch
/// a plan's Rng.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** by Blackman & Vigna; small, fast, and high quality.
class Rng {
public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    for (auto& s : state_) {
      s = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) { return n ? next_u64() % n : 0; }

  /// Standard normal via Box–Muller (one value per call; the pair's second
  /// member is discarded to keep the generator state trivially resumable).
  double normal();

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace aeqp
