#pragma once

// The equalizer's oracle: the seed loop, a plain bisection on u* with
// Σ alloc_for_utility(u) summed by per-consumer virtual dispatch, one
// full pass over the consumers per step.
//
// core::equalize replays this bisection over a flat snapshot of the
// curves. With jobs ahead of transactional apps and other consumers last
// (the order every caller builds), its u*, iteration count, every
// allocation and every utility equal equalize_virtual's bit for bit:
// debug builds of core::equalize assert that at every call,
// EqualizerReplay pins it, and perf_baseline times the two against each
// other. Same search window, tolerance and iteration cap as
// core::equalize. Do not use outside bench/, tests/ and that debug check.

#include <vector>

#include "core/equalizer.hpp"

namespace heteroplace::bench::legacy {

[[nodiscard]] core::EqualizeResult equalize_virtual(
    const std::vector<const core::UtilityConsumer*>& consumers, util::CpuMhz capacity);

}  // namespace heteroplace::bench::legacy
