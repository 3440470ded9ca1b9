#pragma once

// The equalizer's oracles: the plain bisection on u* that core::equalize
// replays, in two forms.
//
// - equalize_virtual is the seed loop: Σ alloc_for_utility(u) by
//   per-consumer virtual dispatch. perf_baseline times core::equalize
//   against it.
// - equalize_bisect is the flat curve cache (one curve_params() call per
//   consumer) under the same bisection: one full pass over the consumers
//   per midpoint, and virtual utility_at for the final utilities. Debug
//   builds of core::equalize assert at every contended call that u*, the
//   iteration count, every allocation and every utility equal its result
//   bit for bit.
//
// Both use the same search window, tolerance and iteration cap as
// core::equalize. Do not use outside bench/, tests/ and that debug check.

#include <vector>

#include "core/equalizer.hpp"

namespace heteroplace::bench::legacy {

[[nodiscard]] core::EqualizeResult equalize_virtual(
    const std::vector<const core::UtilityConsumer*>& consumers, util::CpuMhz capacity);

[[nodiscard]] core::EqualizeResult equalize_bisect(
    const std::vector<const core::UtilityConsumer*>& consumers, util::CpuMhz capacity);

}  // namespace heteroplace::bench::legacy
