// The one wall-clock reading helper: rows, responses and benches all
// time their sections with it.
#pragma once

#include <chrono>

namespace nocdr {

/// Milliseconds elapsed since \p start on the steady clock.
inline double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace nocdr
