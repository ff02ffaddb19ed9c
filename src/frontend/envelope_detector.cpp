#include "frontend/envelope_detector.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/iir.hpp"
#include "dsp/noise.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::frontend {

EnvelopeDetector::EnvelopeDetector(const EnvelopeDetectorConfig& cfg) : cfg_(cfg) {
  if (cfg.conversion_gain <= 0.0) {
    throw std::invalid_argument("EnvelopeDetector: conversion gain must be > 0");
  }
  if (cfg.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("EnvelopeDetector: sample rate must be > 0");
  }
  const double k = cfg.conversion_gain;
  // Impairments are specified as the detector-output level an input of
  // the given power would produce (output amplitude = k * P_in), so
  // the additive noise amplitude scales with k.
  dc_level_ = k * dsp::dbm_to_watts(cfg.dc_offset_dbm_equiv);
  const double flicker_amp = k * dsp::dbm_to_watts(cfg.flicker_noise_dbm_equiv);
  const double white_amp = k * dsp::dbm_to_watts(cfg.white_noise_dbm_equiv);
  flicker_watts_ = flicker_amp * flicker_amp;  // variance of the additive term
  white_watts_ = white_amp * white_amp;
}

void EnvelopeDetector::add_impairments(dsp::RealSignal& y, dsp::Rng& rng,
                                       FrontendScratch& scratch) const {
  if (!cfg_.enable_impairments || y.empty()) return;
  // Flicker needs its own buffer (it is normalized over the whole
  // realization); DC and white noise fold into the fused
  // draw-and-inject pass. Stream order matches the per-sample draws
  // this replaces: all flicker drives first, then one white draw per
  // sample.
  dsp::flicker_noise_into(y.size(), flicker_watts_, rng, scratch.flicker,
                          scratch.flicker_drive);
  const double white_sigma = std::sqrt(white_watts_);
  dsp::simd::add_dc_flicker_gaussian(y.data(), scratch.flicker.data(),
                                     y.size(), dc_level_, white_sigma, rng);
}

void EnvelopeDetector::detect_raw_into(std::span<const dsp::Complex> x,
                                       dsp::Rng& rng, dsp::RealSignal& out,
                                       FrontendScratch& scratch) const {
  out.resize(x.size());
  // k |St + Sn|^2 — Eq. 4 self-mixing.
  dsp::simd::square_law(x.data(), x.size(), cfg_.conversion_gain, out.data());
  add_impairments(out, rng, scratch);
}

void EnvelopeDetector::detect_raw_mixed_into(std::span<const dsp::Complex> x,
                                             std::span<const double> mix_gain,
                                             dsp::Rng& rng, dsp::RealSignal& out,
                                             FrontendScratch& scratch) const {
  if (mix_gain.size() != x.size()) {
    throw std::invalid_argument("detect_raw_mixed: gain length mismatch");
  }
  out.resize(x.size());
  dsp::simd::square_law_mixed(x.data(), mix_gain.data(), x.size(),
                              cfg_.conversion_gain, out.data());
  add_impairments(out, rng, scratch);
}

void EnvelopeDetector::detect_into(std::span<const dsp::Complex> x,
                                   dsp::Rng& rng, dsp::RealSignal& out,
                                   FrontendScratch& scratch) const {
  detect_raw_into(x, rng, out, scratch);
  dsp::OnePole lpf(cfg_.lpf_cutoff_hz, cfg_.sample_rate_hz);
  lpf.process_inplace(out);
}

void EnvelopeDetector::detect_amplified_into(std::span<const dsp::Complex> x,
                                             double lna_gain, double lna_sigma,
                                             dsp::Rng& rng,
                                             dsp::RealSignal& out,
                                             FrontendScratch& scratch) const {
  out.resize(x.size());
  dsp::simd::lna_square_law(x.data(), nullptr, x.size(), lna_gain, lna_sigma,
                            cfg_.conversion_gain, out.data(), rng);
  add_impairments(out, rng, scratch);
  dsp::OnePole lpf(cfg_.lpf_cutoff_hz, cfg_.sample_rate_hz);
  lpf.process_inplace(out);
}

void EnvelopeDetector::detect_raw_mixed_amplified_into(
    std::span<const dsp::Complex> x, std::span<const double> mix_gain,
    double lna_gain, double lna_sigma, dsp::Rng& rng, dsp::RealSignal& out,
    FrontendScratch& scratch) const {
  if (mix_gain.size() != x.size()) {
    throw std::invalid_argument("detect_raw_mixed: gain length mismatch");
  }
  out.resize(x.size());
  dsp::simd::lna_square_law(x.data(), mix_gain.data(), x.size(), lna_gain,
                            lna_sigma, cfg_.conversion_gain, out.data(), rng);
  add_impairments(out, rng, scratch);
}

dsp::RealSignal EnvelopeDetector::detect_raw(std::span<const dsp::Complex> x,
                                             dsp::Rng& rng) const {
  dsp::RealSignal y;
  FrontendScratch scratch;
  detect_raw_into(x, rng, y, scratch);
  return y;
}

dsp::RealSignal EnvelopeDetector::detect(std::span<const dsp::Complex> x,
                                         dsp::Rng& rng) const {
  dsp::RealSignal y;
  FrontendScratch scratch;
  detect_into(x, rng, y, scratch);
  return y;
}

}  // namespace saiyan::frontend
