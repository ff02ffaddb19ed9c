#include "sim/capture.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsp/noise.hpp"
#include "dsp/utils.hpp"
#include "lora/modulator.hpp"

namespace saiyan::sim {

namespace {

/// Walk the maximal chains of mutually overlapping frames in an
/// offset-ordered marker list (frame p overlaps p+1 when p+1 starts
/// before p's frame ends) and call `fn(first, last)` for every chain
/// of ≥2 members — the one overlap-grouping rule shared by the
/// generator's ground truth and replay scoring.
template <typename Fn>
void walk_collision_chains(std::span<const stream::TraceMarker> markers,
                           std::size_t frame_samples, Fn&& fn) {
  std::size_t i = 0;
  while (i < markers.size()) {
    std::size_t j = i;
    std::uint64_t chain_end = markers[i].sample_offset + frame_samples;
    while (j + 1 < markers.size() &&
           markers[j + 1].sample_offset < chain_end) {
      ++j;
      chain_end =
          std::max(chain_end, markers[j].sample_offset + frame_samples);
    }
    if (j > i) fn(i, j);
    i = j + 1;
  }
}

/// Fill the per-marker collision flags and group count from the
/// schedule geometry.
void mark_collisions(Capture& cap, std::size_t frame_samples) {
  cap.collided.assign(cap.markers.size(), 0);
  cap.collision_groups = 0;
  walk_collision_chains(cap.markers, frame_samples,
                        [&](std::size_t first, std::size_t last) {
                          ++cap.collision_groups;
                          for (std::size_t k = first; k <= last; ++k) {
                            cap.collided[k] = 1;
                          }
                        });
}

}  // namespace

Capture generate_capture(const CaptureConfig& cfg) {
  cfg.saiyan.phy.validate();
  if (cfg.tag_rss_dbm.empty()) {
    throw std::invalid_argument("generate_capture: no tags");
  }
  const bool scheduled = !cfg.offsets.empty();
  if (cfg.payload_symbols == 0 ||
      (!scheduled && cfg.packets_per_tag == 0)) {
    throw std::invalid_argument("generate_capture: empty schedule");
  }
  if (!cfg.tag_phase_rad.empty() &&
      cfg.tag_phase_rad.size() != cfg.tag_rss_dbm.size()) {
    throw std::invalid_argument("generate_capture: tag_phase_rad size");
  }
  if (!cfg.tag_cfo_hz.empty() &&
      cfg.tag_cfo_hz.size() != cfg.tag_rss_dbm.size()) {
    throw std::invalid_argument("generate_capture: tag_cfo_hz size");
  }
  const lora::PhyParams& phy = cfg.saiyan.phy;
  const std::size_t spsym = phy.samples_per_symbol();
  const std::size_t n_tags = cfg.tag_rss_dbm.size();
  const std::size_t n_packets =
      scheduled ? cfg.offsets.size() : n_tags * cfg.packets_per_tag;
  lora::Modulator mod(phy);
  const lora::PacketLayout lay = mod.layout(cfg.payload_symbols);

  // One deterministic stream drives the whole capture: schedule and
  // payload draws first (in packet order), then the noise fill.
  dsp::Rng rng(dsp::derive_stream_seed(cfg.seed, 0x7c5));
  const std::uint64_t gap_lo = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, cfg.min_gap_symbols) *
                   static_cast<double>(spsym)));
  const std::uint64_t gap_hi = std::max(
      gap_lo, static_cast<std::uint64_t>(std::llround(
                  std::max(0.0, cfg.max_gap_symbols) *
                  static_cast<double>(spsym))));

  Capture cap;
  cap.markers.reserve(n_packets);
  std::uint64_t cursor = scheduled ? 0 : rng.uniform_int(gap_lo, gap_hi);
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (scheduled) {
      if (p > 0 && cfg.offsets[p] < cfg.offsets[p - 1]) {
        throw std::invalid_argument("generate_capture: offsets not sorted");
      }
      cursor = cfg.offsets[p];
    }
    stream::TraceMarker m;
    m.sample_offset = cursor;
    m.tag_id = static_cast<std::uint32_t>(p % n_tags);
    m.symbols.resize(cfg.payload_symbols);
    for (std::uint32_t& v : m.symbols) {
      v = static_cast<std::uint32_t>(
          rng.uniform_int(0, phy.symbol_alphabet() - 1));
    }
    if (cfg.link_headers) {
      // Overwrite *after* the draws so the Rng stream — and with it
      // the schedule and every other symbol — matches a header-less
      // capture bit for bit.
      m.symbols[0] = m.tag_id % phy.symbol_alphabet();
      if (m.symbols.size() > 1) {
        m.symbols[1] = static_cast<std::uint32_t>(
            (p / n_tags) % phy.symbol_alphabet());
      }
    }
    cap.markers.push_back(std::move(m));
    if (!scheduled) {
      cursor += lay.total_samples + rng.uniform_int(gap_lo, gap_hi);
    }
  }
  // A trailing idle symbol keeps the last frame clear of the capture
  // end (a *truncated* capture is produced by cutting the waveform,
  // not by the generator). An explicit schedule measures from the last
  // frame's end.
  const std::uint64_t total =
      (scheduled ? cap.markers.back().sample_offset + lay.total_samples
                 : cursor) +
      spsym;
  mark_collisions(cap, lay.total_samples);

  cap.samples.assign(static_cast<std::size_t>(total), dsp::Complex{});
  dsp::Signal wave;
  for (const stream::TraceMarker& m : cap.markers) {
    mod.modulate_into(m.symbols, wave);
    const double p_avg = dsp::signal_power(wave);
    const double scale =
        p_avg > 0.0
            ? std::sqrt(dsp::dbm_to_watts(cfg.tag_rss_dbm[m.tag_id]) / p_avg)
            : 1.0;
    dsp::Complex* dst = cap.samples.data() + m.sample_offset;
    const double ph =
        cfg.tag_phase_rad.empty() ? 0.0 : cfg.tag_phase_rad[m.tag_id];
    const double cfo =
        cfg.tag_cfo_hz.empty() ? 0.0 : cfg.tag_cfo_hz[m.tag_id];
    if (ph == 0.0 && cfo == 0.0) {
      for (std::size_t i = 0; i < wave.size(); ++i) dst[i] += scale * wave[i];
    } else if (cfo == 0.0) {
      const dsp::Complex amp = scale * dsp::Complex(std::cos(ph), std::sin(ph));
      for (std::size_t i = 0; i < wave.size(); ++i) dst[i] += amp * wave[i];
    } else {
      // Carrier offset: rotate the packet by exp(i·2π·f·n/fs) with the
      // phase origin at the packet start (the CFO estimator is
      // phase-difference based, so the origin is immaterial).
      const double w = dsp::kTwoPi * cfo / phy.sample_rate_hz;
      const dsp::Complex amp = scale * dsp::Complex(std::cos(ph), std::sin(ph));
      const dsp::Complex rot(std::cos(w), std::sin(w));
      dsp::Complex osc(1.0, 0.0);
      for (std::size_t i = 0; i < wave.size(); ++i) {
        dst[i] += amp * osc * wave[i];
        osc *= rot;
      }
    }
  }
  // Thermal floor over the whole capture — gaps carry noise too, like
  // a real gateway front end.
  const double floor_dbm =
      dsp::thermal_noise_floor_dbm(phy.sample_rate_hz, cfg.noise_figure_db);
  const double sigma = std::sqrt(dsp::dbm_to_watts(floor_dbm) / 2.0);
  for (dsp::Complex& v : cap.samples) {
    v += dsp::Complex(sigma * rng.gaussian(), sigma * rng.gaussian());
  }
  return cap;
}

void write_capture(const Capture& capture, const CaptureConfig& cfg,
                   const std::string& path, std::size_t chunk_samples,
                   bool float32) {
  if (chunk_samples == 0) {
    throw std::invalid_argument("write_capture: chunk_samples == 0");
  }
  stream::TraceMeta meta;
  meta.phy = cfg.saiyan.phy;
  meta.mode = cfg.saiyan.mode;
  meta.payload_symbols = cfg.payload_symbols;
  meta.float32_samples = float32;
  stream::TraceWriter writer(path, meta, capture.markers);
  std::span<const dsp::Complex> rest(capture.samples);
  while (!rest.empty()) {
    const std::size_t take = std::min(chunk_samples, rest.size());
    writer.write_chunk(rest.first(take));
    rest = rest.subspan(take);
  }
  writer.close();
}

ReplayStats score_replay(const stream::StreamingDemodulator& demod,
                         std::span<const stream::TraceMarker> markers,
                         std::size_t tolerance_samples) {
  ReplayStats stats;
  stats.markers = markers.size();
  stats.decoded = demod.packets().size();
  stats.truncated = demod.truncated_packets();
  stats.samples = demod.samples_consumed();
  // Markers are offset-ordered; decoded packets are too, except that a
  // SIC-revealed frame can trail a later non-overlapping one, so sort
  // an index view first, then walk both lists together, pairing each
  // decoded packet with the nearest unconsumed marker in range.
  std::vector<std::size_t> order(demod.packets().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demod.packets()[a].packet_start <
                            demod.packets()[b].packet_start;
                   });
  std::vector<std::uint8_t> captured(markers.size(), 0);
  std::size_t mi = 0;
  for (const std::size_t pi : order) {
    const stream::DecodedPacket& p = demod.packets()[pi];
    while (mi < markers.size() &&
           markers[mi].sample_offset + tolerance_samples < p.packet_start) {
      ++mi;  // marker missed entirely
    }
    if (mi >= markers.size() ||
        p.packet_start + tolerance_samples < markers[mi].sample_offset) {
      ++stats.false_detections;
      continue;
    }
    const stream::TraceMarker& m = markers[mi];
    ++stats.matched;
    const std::span<const std::uint32_t> got = demod.symbols(p);
    stats.symbols += m.symbols.size();
    std::size_t errors = 0;
    for (std::size_t i = 0; i < m.symbols.size(); ++i) {
      const std::uint32_t actual = i < got.size() ? got[i] : ~0u;
      if (actual != m.symbols[i]) ++errors;
    }
    stats.symbol_errors += errors;
    captured[mi] = errors == 0 ? 1 : 0;
    ++mi;
  }
  // Collision/capture outcome from the ground-truth overlap geometry
  // (the same chain walk the generator's ground truth uses).
  walk_collision_chains(markers, demod.frame_samples(),
                        [&](std::size_t first, std::size_t last) {
                          std::size_t ok = 0;
                          for (std::size_t k = first; k <= last; ++k) {
                            ok += captured[k];
                          }
                          stats.collisions.add_group(last - first + 1, ok);
                        });
  stats.collisions.add_resolved(demod.collisions_resolved());
  return stats;
}

ReplayStats replay_trace(const std::string& path, const ReplayConfig& cfg) {
  auto opened = stream::TraceReader::open(path, cfg.resync);
  if (!opened.ok()) throw std::runtime_error(opened.message());
  stream::TraceReader reader = std::move(opened).value();
  stream::StreamConfig sc = cfg.stream;
  sc.saiyan = core::SaiyanConfig::make(reader.meta().phy, reader.meta().mode);
  sc.payload_symbols = reader.meta().payload_symbols;
  stream::StreamingDemodulator demod(sc);

  dsp::Signal chunk;
  for (;;) {
    const stream::ChunkStatus st = reader.next_chunk(chunk);
    // A skipped corrupt region (before a kResync chunk, or a tail
    // before kEof) realigns the demodulator's absolute sample clock.
    demod.note_gap(reader.last_gap_samples());
    // kEof, or (strict mode) a corrupted chunk wedging the replay.
    if (st != stream::ChunkStatus::kOk && st != stream::ChunkStatus::kResync) {
      break;
    }
    demod.push(chunk);
  }
  demod.finish();
  ReplayStats stats =
      score_replay(demod, reader.markers(),
                   reader.meta().phy.samples_per_symbol() / 2);
  stats.corrupt_chunks = static_cast<std::size_t>(reader.stats().chunks_corrupt);
  stats.ingest = reader.stats();
  stats.ingest.merge(demod.ingest());
  return stats;
}

}  // namespace saiyan::sim
