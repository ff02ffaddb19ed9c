#include "dsp/window.hpp"

#include <cmath>
#include <stdexcept>

namespace saiyan::dsp {

double bessel_i0(double x) {
  // Power-series evaluation; converges quickly for the beta range used
  // in filter design (|x| < ~30).
  double sum = 1.0;
  double term = 1.0;
  const double half_x = x / 2.0;
  for (int k = 1; k < 64; ++k) {
    term *= (half_x / k) * (half_x / k);
    sum += term;
    if (term < 1e-16 * sum) break;
  }
  return sum;
}

RealSignal make_window(WindowType type, std::size_t n, double beta) {
  if (n == 0) throw std::invalid_argument("make_window: n must be > 0");
  RealSignal w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  switch (type) {
    case WindowType::kRectangular:
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * i / denom);
      }
      break;
    case WindowType::kHamming:
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * i / denom);
      }
      break;
    case WindowType::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = kTwoPi * i / denom;
        w[i] = 0.42 - 0.5 * std::cos(t) + 0.08 * std::cos(2.0 * t);
      }
      break;
    case WindowType::kKaiser: {
      const double i0_beta = bessel_i0(beta);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = 2.0 * i / denom - 1.0;
        w[i] = bessel_i0(beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / i0_beta;
      }
      break;
    }
  }
  return w;
}

}  // namespace saiyan::dsp
