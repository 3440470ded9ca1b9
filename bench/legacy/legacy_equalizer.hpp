#pragma once

// The seed equalizer loop: Σ alloc_for_utility(u) by per-consumer virtual
// dispatch, with the same search window, tolerance and iteration cap as
// core::equalize. Kept so that (a) perf_baseline measures the flat curve
// cache against the loop it replaced, and (b) equalizer tests can assert
// the two agree.
//
// Do not use outside bench/ and tests/.

#include <vector>

#include "core/equalizer.hpp"

namespace heteroplace::bench::legacy {

[[nodiscard]] core::EqualizeResult equalize_virtual(
    const std::vector<const core::UtilityConsumer*>& consumers, util::CpuMhz capacity);

}  // namespace heteroplace::bench::legacy
