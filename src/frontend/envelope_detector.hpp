// Square-law envelope detector (paper Eq. 4 and §3.1).
//
// The detector output is k·|S_in|^2: self-mixing shifts the wanted
// signal to baseband but also folds RF noise down with it
// (2k·St·Sn + k·Sn^2). On top of that the CMOS detector adds its own
// baseband impairments — DC offset, 1/f flicker noise and white
// noise — which sit exactly where the demodulator wants to read the
// envelope. The cyclic-frequency-shifting circuit (cfs.hpp) exists to
// escape these; the noise levels here are what give CFS its ~11 dB
// SNR gain (paper Fig. 10).
#pragma once

#include <span>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "frontend/workspace.hpp"

namespace saiyan::frontend {

struct EnvelopeDetectorConfig {
  double conversion_gain = 1.0;     ///< k in y = k |x|^2
  double lpf_cutoff_hz = 200e3;     ///< post-detection smoothing
  double sample_rate_hz = 4e6;
  // Baseband impairments, expressed as equivalent detector-output
  // levels relative to the response to a -50 dBm input (i.e. scaled by
  // k so they track the conversion gain). Calibrated so that the
  // envelope-detector-only receiver loses ~30 dB of sensitivity vs.
  // Saiyan (paper §5.2.1) and CFS recovers ~11 dB (paper §3.1).
  double dc_offset_dbm_equiv = -62.0;      ///< static offset
  double flicker_noise_dbm_equiv = -65.0;  ///< 1/f power (in-band)
  double white_noise_dbm_equiv = -89.0;    ///< broadband floor
  bool enable_impairments = true;
};

class EnvelopeDetector {
 public:
  explicit EnvelopeDetector(const EnvelopeDetectorConfig& cfg);

  /// Full detector: square-law + impairments + smoothing low-pass.
  dsp::RealSignal detect(std::span<const dsp::Complex> x, dsp::Rng& rng) const;

  /// Square-law + impairments only, no smoothing — the wideband output
  /// the CFS circuit taps before its IF amplifier.
  dsp::RealSignal detect_raw(std::span<const dsp::Complex> x, dsp::Rng& rng) const;

  /// Workspace variants: write into a caller-owned buffer, drawing the
  /// impairment noise through the scratch's reusable buffers. Values
  /// and RNG consumption are identical to the allocating overloads.
  void detect_into(std::span<const dsp::Complex> x, dsp::Rng& rng,
                   dsp::RealSignal& out, FrontendScratch& scratch) const;
  void detect_raw_into(std::span<const dsp::Complex> x, dsp::Rng& rng,
                       dsp::RealSignal& out, FrontendScratch& scratch) const;
  /// Square-law of x pre-multiplied by a real per-sample mixer gain:
  /// y = k |g·x|² + impairments = k g² |x|² + impairments. Lets the
  /// CFS input mixer skip materializing the mixed complex waveform.
  void detect_raw_mixed_into(std::span<const dsp::Complex> x,
                             std::span<const double> mix_gain, dsp::Rng& rng,
                             dsp::RealSignal& out,
                             FrontendScratch& scratch) const;

  /// Fused-LNA variants: `x` is the *unamplified* waveform; the CG-LNA
  /// stage (y = lna_gain·(x + noise), noise sigma per I/Q component)
  /// is applied inside the square-law kernel without materializing the
  /// amplified waveform. Values and RNG consumption identical to
  /// Lna::amplify_into followed by the corresponding detect method.
  void detect_amplified_into(std::span<const dsp::Complex> x, double lna_gain,
                             double lna_sigma, dsp::Rng& rng,
                             dsp::RealSignal& out,
                             FrontendScratch& scratch) const;
  void detect_raw_mixed_amplified_into(std::span<const dsp::Complex> x,
                                       std::span<const double> mix_gain,
                                       double lna_gain, double lna_sigma,
                                       dsp::Rng& rng, dsp::RealSignal& out,
                                       FrontendScratch& scratch) const;

  const EnvelopeDetectorConfig& config() const { return cfg_; }

 private:
  /// Adds DC offset, 1/f flicker and white noise to a detector output
  /// (shared by the plain and mixer-scaled square-law paths).
  void add_impairments(dsp::RealSignal& y, dsp::Rng& rng,
                       FrontendScratch& scratch) const;

  EnvelopeDetectorConfig cfg_;
  double dc_level_;
  double flicker_watts_;
  double white_watts_;
};

}  // namespace saiyan::frontend
