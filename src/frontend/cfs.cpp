#include "frontend/cfs.hpp"

#include <stdexcept>

#include "dsp/iir.hpp"
#include "dsp/nco.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::frontend {

namespace {

/// Input-mixer carrier leak-through fraction (finite mixer isolation,
/// the S(0) term of Fig. 9c).
constexpr double kCarrierLeak = 0.25;

}  // namespace

CyclicFrequencyShifter::CyclicFrequencyShifter(const CfsConfig& cfg,
                                               const EnvelopeDetectorConfig& ed_cfg)
    : cfg_(cfg), detector_(ed_cfg), clocks_(cfg.clock), fs_hz_(ed_cfg.sample_rate_hz) {
  if (cfg.clock.sample_rate_hz != ed_cfg.sample_rate_hz) {
    throw std::invalid_argument("CFS: clock and detector sample rates must match");
  }
  if (cfg.output_lpf_cutoff_hz >= cfg.clock.frequency_hz) {
    throw std::invalid_argument("CFS: output LPF must cut below the IF");
  }
}

void CyclicFrequencyShifter::if_stage_into(
    std::span<const dsp::Complex> rf, dsp::Rng& rng, dsp::RealSignal& out,
    FrontendScratch& scratch, const std::pair<double, double>* lna) const {
  // Step 1: input mixing with CLK_in — a real multiplier, producing
  // both sidebands S(F±Δf). The original carrier also leaks through
  // (finite mixer isolation); keep a fraction of it so the model
  // reproduces the S(0) term of Fig. 9(c). The mixed complex waveform
  // is never materialized: |x·(clk+c)|² = (clk+c)²·|x|², so the mixer
  // gain goes straight into the square-law detector. The clock table
  // depends only on (clock config, length) and is cached in the
  // scratch; the key fields catch a workspace reused across
  // differently-clocked demodulators.
  if (scratch.cfs_clk.size() != rf.size() ||
      scratch.clk_freq_hz != cfg_.clock.frequency_hz ||
      scratch.clk_fs_hz != fs_hz_ ||
      scratch.clk_phase_rad != cfg_.clock.delay_line_phase_rad) {
    scratch.cfs_clk = clocks_.clk_in(rf.size());
    for (double& v : scratch.cfs_clk) v += kCarrierLeak;
    scratch.cfs_lo.clear();  // rebuilt below against the new key
    scratch.clk_freq_hz = cfg_.clock.frequency_hz;
    scratch.clk_fs_hz = fs_hz_;
    scratch.clk_phase_rad = cfg_.clock.delay_line_phase_rad;
  }

  // Step 2: envelope detection. |S(F)·(cos(2πΔf t)+c)|² beats the
  // sidebands against the carrier, landing the envelope at Δf (and
  // 2Δf); the detector's DC/flicker noise stays at baseband. With a
  // fused LNA the amplification rides the same kernel.
  if (lna != nullptr) {
    detector_.detect_raw_mixed_amplified_into(rf, scratch.cfs_clk, lna->first,
                                              lna->second, rng, out, scratch);
  } else {
    detector_.detect_raw_mixed_into(rf, scratch.cfs_clk, rng, out, scratch);
  }

  // Step 3: IF amplification — bandpass at Δf with gain (folded into
  // the biquad's feed-forward coefficients).
  dsp::Biquad bp = dsp::Biquad::bandpass(cfg_.clock.frequency_hz, fs_hz_,
                                         cfg_.if_quality_factor);
  bp.scale_output(dsp::db_to_amp(cfg_.if_gain_db));
  bp.process_inplace(out);
}

// Steps 4 and 5, shared by the plain and fused-LNA entry points.
void CyclicFrequencyShifter::output_stage_into(std::size_t n,
                                               dsp::RealSignal& out,
                                               FrontendScratch& scratch) const {
  // Step 4: output mixing with the delay-line clock copy brings the IF
  // envelope back to baseband (amplitude × cos(Δφ)/2) and shifts the
  // residual baseband noise up to Δf. The LO table is the delay-line
  // clock's cosine (dsp::Nco::cosine), cached per length; the 2x mixer
  // scale rides the low-pass coefficients below.
  if (scratch.cfs_lo.size() != n) {
    dsp::Nco lo(cfg_.clock.frequency_hz, fs_hz_,
                cfg_.clock.delay_line_phase_rad);
    scratch.cfs_lo = lo.cosine(n);
  }
  dsp::simd::multiply(out.data(), scratch.cfs_lo.data(), out.size(),
                      out.data());

  // Step 5: low-pass away the Δf and 2Δf products.
  dsp::Biquad lpf = dsp::Biquad::lowpass(cfg_.output_lpf_cutoff_hz, fs_hz_, 0.707);
  lpf.scale_output(2.0);
  lpf.process_inplace(out);
}

void CyclicFrequencyShifter::process_into(std::span<const dsp::Complex> rf,
                                          dsp::Rng& rng, dsp::RealSignal& out,
                                          FrontendScratch& scratch) const {
  if_stage_into(rf, rng, out, scratch, nullptr);
  output_stage_into(rf.size(), out, scratch);
}

void CyclicFrequencyShifter::process_amplified_into(
    std::span<const dsp::Complex> rf, double lna_gain, double lna_sigma,
    dsp::Rng& rng, dsp::RealSignal& out, FrontendScratch& scratch) const {
  const std::pair<double, double> lna{lna_gain, lna_sigma};
  if_stage_into(rf, rng, out, scratch, &lna);
  output_stage_into(rf.size(), out, scratch);
}

dsp::RealSignal CyclicFrequencyShifter::process(std::span<const dsp::Complex> rf,
                                                dsp::Rng& rng) const {
  dsp::RealSignal out;
  FrontendScratch scratch;
  process_into(rf, rng, out, scratch);
  return out;
}

}  // namespace saiyan::frontend
