#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace heteroplace::util {

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = hi - lo + 1;
  if (range == 0) return (*this)();  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + v % range;
}

double Rng::exponential_mean(double mean) {
  assert(mean > 0.0);
  // -mean * log(1 - U); 1 - uniform01() is in (0, 1], so log is finite.
  return -mean * std::log(1.0 - uniform01());
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller; draw both uniforms every call so the stream is stateless.
  const double u1 = 1.0 - uniform01();  // (0, 1]
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

Rng Rng::split() {
  // A fresh seed drawn from this stream yields an independent child.
  return Rng{(*this)()};
}

}  // namespace heteroplace::util
