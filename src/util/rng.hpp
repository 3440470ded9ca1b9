#pragma once

// Deterministic random number generation.
//
// Experiments must be bit-reproducible across platforms and standard-library
// versions, so we implement both the engine (xoshiro256**, seeded through
// splitmix64) and the distributions ourselves instead of relying on
// std::*_distribution (whose output is implementation-defined).

#include <array>
#include <cstdint>
#include <limits>

namespace heteroplace::util {

/// splitmix64: used to expand a single 64-bit seed into engine state.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — fast, high-quality, tiny state. Satisfies
/// UniformRandomBitGenerator so it can also feed <random> if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64_next(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive (lo <= hi).
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Exponential with the given mean (inter-arrival sampling). mean > 0.
  [[nodiscard]] double exponential_mean(double mean);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal: exp(normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) { return uniform01() < p; }

  /// Derive an independent child stream (e.g., one per workload).
  [[nodiscard]] Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace heteroplace::util
