// Numerically controlled oscillator and mixing helpers.
//
// Models the LTC6907-style clock sources and the mixing operations of
// the cyclic-frequency-shifting circuit (paper Fig. 9/11).
#pragma once

#include <span>

#include "dsp/types.hpp"

namespace saiyan::dsp {

/// Phase-continuous oscillator. `frequency_hz` may be negative.
class Nco {
 public:
  Nco(double frequency_hz, double fs_hz, double initial_phase_rad = 0.0);

  /// Next complex exponential sample exp(j(2π f t + φ0)).
  Complex next();

  /// Next real cosine sample cos(2π f t + φ0).
  double next_real();

  /// Generate n complex samples.
  Signal tone(std::size_t n);

  /// Generate n real cosine samples.
  RealSignal cosine(std::size_t n);

  /// Retune without phase discontinuity.
  void set_frequency(double frequency_hz);

  /// Advance the phase by n samples without emitting output.
  void advance(std::size_t n);

  double frequency() const { return freq_hz_; }
  double phase() const { return phase_; }
  void reset(double phase_rad = 0.0) { phase_ = phase_rad; }

 private:
  double freq_hz_;
  double fs_hz_;
  double phase_;       // radians
  double phase_inc_;   // radians/sample
};

/// Multiply a complex waveform by exp(j 2π f t + φ) — complex mixing
/// (single-sideband frequency shift).
Signal mix_complex(std::span<const Complex> x, double f_hz, double fs_hz,
                   double phase_rad = 0.0);

}  // namespace saiyan::dsp
