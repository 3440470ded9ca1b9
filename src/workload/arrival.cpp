#include "workload/arrival.hpp"

namespace heteroplace::workload {

std::optional<util::Seconds> PoissonArrivals::next(util::Rng& rng) {
  if (remaining_ == 0) return std::nullopt;
  if (remaining_ > 0) --remaining_;
  t_ += util::Seconds{rng.exponential_mean(mean_gap_.get())};
  return t_;
}

std::optional<util::Seconds> PhasedPoissonArrivals::next(util::Rng& rng) {
  while (phase_ < phases_.size() && emitted_in_phase_ >= phases_[phase_].count) {
    ++phase_;
    emitted_in_phase_ = 0;
  }
  if (phase_ >= phases_.size()) return std::nullopt;
  ++emitted_in_phase_;
  t_ += util::Seconds{rng.exponential_mean(phases_[phase_].mean_gap.get())};
  return t_;
}

std::optional<util::Seconds> UniformArrivals::next(util::Rng& /*rng*/) {
  if (remaining_ == 0) return std::nullopt;
  if (remaining_ > 0) --remaining_;
  t_ += gap_;
  return t_;
}

}  // namespace heteroplace::workload
