// Window functions for FIR design and spectral analysis.
#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace saiyan::dsp {

enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
  kKaiser,  ///< requires a beta parameter
};

/// Generate an n-point window. `beta` is only used for Kaiser windows.
RealSignal make_window(WindowType type, std::size_t n, double beta = 8.6);

/// Zeroth-order modified Bessel function of the first kind (series
/// expansion), used by the Kaiser window.
double bessel_i0(double x);

}  // namespace saiyan::dsp
