// The benchmark's three workloads, generated from the run's seed.
//
// All share the paper's evaluation PHY (SF7, BW 500 kHz, 4 MS/s, K=2,
// Saiyan super mode, 32-symbol payloads) and one gateway worker; each
// loads a different layer:
//
//   replay_sparse   closed loop, v1 (float64) trace, 4 tags with 48-96
//                   symbol idle gaps (~40 % airtime), SIC off: trace
//                   read + CRC and the scan do nearly all the work.
//   replay_collide  closed loop, v2 (float32) trace, most frames collide
//                   with another at a 6 dB power difference, SIC depth
//                   2: decode and SIC cancel/rescan dominate.
//   live_push       open loop, no trace: an in-memory capture with 8-16
//                   symbol gaps pushed in 8192-sample chunks (one scan
//                   block) at a fixed 1 MS/s (0.25x air), SIC off.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "dsp/rng.hpp"
#include "lora/modulator.hpp"
#include "sim/capture.hpp"

namespace perfbench {

using namespace saiyan;

enum class Kind { kReplaySparse, kReplayCollide, kLivePush };

struct Workload {
  Kind kind = Kind::kReplaySparse;
  const char* name = "";
  bool replay = true;         ///< closed-loop trace replay (else live push)
  bool float32 = false;       ///< v2 trace sample encoding
  std::size_t sic_depth = 0;  ///< gateway stream.sic.depth
};

inline constexpr double kSampleRate = 4e6;
inline constexpr std::size_t kPayloadSymbols = 32;
/// Samples per trace chunk and per live push: one scan block (8 symbols
/// at SF7 / 4 MS/s), so a frame's latency covers the block it completes
/// in and not its neighbours.
inline constexpr std::size_t kChunk = 8192;
/// live_push offered rate, samples per second: fixed, well below one
/// worker's capacity.
inline constexpr double kLiveRate = 1e6;

inline Workload workload_by_name(std::string_view name) {
  if (name == "replay_sparse") {
    return {Kind::kReplaySparse, "replay_sparse", true, false, 0};
  }
  if (name == "replay_collide") {
    return {Kind::kReplayCollide, "replay_collide", true, true, 2};
  }
  if (name == "live_push") {
    return {Kind::kLivePush, "live_push", false, false, 0};
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

inline core::SaiyanConfig phy_config() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = kSampleRate;
  p.bits_per_symbol = 2;
  return core::SaiyanConfig::make(p, core::Mode::kSuper);
}

/// Fisher-Yates shuffle driven by the workload's own Rng.
template <typename T>
void shuffle(std::vector<T>& v, dsp::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_int(0, i - 1)]);
  }
}

/// `n` gaps from `lo` to `hi` symbols, evenly spaced, in a seeded order.
/// Every seed's capture then has the same length and the same gap mix;
/// the seed changes their order, the payloads and the noise.
inline std::vector<std::uint64_t> spread_gaps(std::size_t n, double lo,
                                              double hi, std::size_t spsym,
                                              dsp::Rng& rng) {
  std::vector<std::uint64_t> gaps;
  for (std::size_t i = 0; i < n; ++i) {
    const double sym =
        n == 1 ? lo
               : lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(n - 1);
    gaps.push_back(static_cast<std::uint64_t>(
        std::llround(sym * static_cast<double>(spsym))));
  }
  shuffle(gaps, rng);
  return gaps;
}

/// Capture of workload `w` for `seed`. `warm` selects the tiny capture
/// (one frame; one colliding pair for replay_collide) used to fill
/// caches during set-up.
inline sim::CaptureConfig capture_config(const Workload& w,
                                         std::uint64_t seed, bool warm) {
  sim::CaptureConfig cfg;
  cfg.saiyan = phy_config();
  cfg.payload_symbols = kPayloadSymbols;
  cfg.seed = dsp::derive_stream_seed(seed, static_cast<std::uint64_t>(w.kind));
  dsp::Rng rng(dsp::derive_stream_seed(cfg.seed, 0x5c4ed));
  const std::size_t spsym = cfg.saiyan.phy.samples_per_symbol();
  const std::size_t frame =
      lora::Modulator(cfg.saiyan.phy).layout(kPayloadSymbols).total_samples;
  std::uint64_t cursor = 0;
  if (w.kind == Kind::kReplayCollide) {
    // Packet p belongs to tag p % 2, so frames come in (strong, weak)
    // pairs. Four pairs in five collide: the weak frame starts 8-19
    // symbols into the strong one, each of those twelve lags three times
    // per capture in a seeded order, so every seed loads SIC alike. The
    // fifth pair is sent apart.
    cfg.tag_rss_dbm = {-55.0, -61.0};
    std::vector<std::uint64_t> lags;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t l = 8; l <= 19; ++l) lags.push_back(l * spsym);
    }
    shuffle(lags, rng);
    const std::size_t pairs = warm ? 1 : 45;
    const std::vector<std::uint64_t> gaps = spread_gaps(pairs, 8, 16, spsym, rng);
    for (std::size_t p = 0, k = 0; p < pairs; ++p) {
      const bool clean = p % 5 == 4;
      const std::uint64_t lag = clean ? frame + 12 * spsym : lags[k++];
      cursor += gaps[p];
      cfg.offsets.push_back(cursor);
      cfg.offsets.push_back(cursor + lag);
      cursor += lag + frame;
    }
    return cfg;
  }
  // replay_sparse: 48-96 symbol gaps (~40 % airtime); live_push: 8-16.
  const bool sparse = w.kind == Kind::kReplaySparse;
  cfg.tag_rss_dbm = {-55.0, -57.0, -59.0, -61.0};
  const std::size_t frames = warm ? 1 : sparse ? 16 : 44;
  const std::vector<std::uint64_t> gaps =
      warm ? std::vector<std::uint64_t>{2 * spsym}
           : spread_gaps(frames, sparse ? 48 : 8, sparse ? 96 : 16, spsym, rng);
  for (std::size_t p = 0; p < frames; ++p) {
    cursor += gaps[p];
    cfg.offsets.push_back(cursor);
    cursor += frame;
  }
  return cfg;
}

}  // namespace perfbench
