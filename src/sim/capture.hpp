// Synthetic multi-tag gateway captures: record and replay.
//
// The figure sweeps exercise one packet at a time; a gateway workload
// is one long capture with many packets from many tags at unknown
// offsets, idle gaps and partial packets. generate_capture()
// synthesizes that workload deterministically — every tag transmits
// `packets_per_tag` packets at its own RSS, interleaved with random
// idle gaps, over a shared thermal noise floor — together with the
// ground-truth markers (offset, tag, payload) a replay scores itself
// against. write_capture() serializes it into the versioned trace
// format (stream/trace.hpp); replay_trace() runs a
// stream::StreamingDemodulator over a trace file chunk by chunk and
// reports detection/decode statistics.
//
// Everything is a pure function of (config, seed): captures, traces
// and replays reproduce bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/metrics.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"

namespace saiyan::sim {

struct CaptureConfig {
  core::SaiyanConfig saiyan;
  std::vector<double> tag_rss_dbm;   ///< one transmitting tag per entry
  std::size_t packets_per_tag = 5;
  std::size_t payload_symbols = 16;
  double noise_figure_db = 6.0;      ///< thermal floor across the capture
  double min_gap_symbols = 2.0;      ///< idle gap between packets
  double max_gap_symbols = 12.0;
  std::uint64_t seed = 1;
  /// Explicit schedule: when non-empty, packet p starts at offsets[p]
  /// (non-decreasing absolute sample offsets; tag p % n_tags) and the
  /// random gap schedule — including packets_per_tag — is ignored.
  /// This is how the SIC tests place overlapping frames at controlled
  /// symbol offsets.
  std::vector<std::uint64_t> offsets;
  /// Optional per-tag carrier phase in radians (empty, or one entry
  /// per tag): every packet of tag t is injected rotated by
  /// exp(i·tag_phase_rad[t]), exercising the complex amplitude fit of
  /// the SIC least-squares cancellation.
  std::vector<double> tag_phase_rad;
  /// Optional per-tag carrier-frequency offset in Hz (empty, or one
  /// entry per tag): every packet of tag t is injected rotated by
  /// exp(i·2π·f·n/fs) across its span — ground truth for the link
  /// telemetry CFO estimator. Zero/empty leaves the waveform
  /// bit-identical to a pre-CFO capture.
  std::vector<double> tag_cfo_hz;
  /// Link-header convention for telemetry ground truth: overwrite
  /// payload symbol 0 with the tag id and symbol 1 with a per-tag
  /// wrapping sequence counter (both mod the symbol alphabet) *after*
  /// the random payload draws, so the schedule, the remaining symbols
  /// and the noise fill stay bit-identical to a header-less capture.
  bool link_headers = false;
};

struct Capture {
  dsp::Signal samples;
  std::vector<stream::TraceMarker> markers;  ///< in transmission order
  /// Collision ground truth (parallel to markers): frame p overlaps at
  /// least one other frame's [offset, offset + total_samples) span.
  std::vector<std::uint8_t> collided;
  /// Maximal chains of ≥2 mutually overlapping frames.
  std::size_t collision_groups = 0;
};

/// Synthesize the capture waveform + ground truth.
Capture generate_capture(const CaptureConfig& cfg);

/// Serialize a capture into a trace file in `chunk_samples` chunks.
/// `float32` selects the version-2 sample encoding (half the bytes;
/// replay becomes tolerance-equivalent instead of bit-exact).
void write_capture(const Capture& capture, const CaptureConfig& cfg,
                   const std::string& path, std::size_t chunk_samples = 16384,
                   bool float32 = false);

/// Replay statistics: ground truth vs what the streaming demodulator
/// recovered.
struct ReplayStats {
  std::size_t markers = 0;           ///< packets actually transmitted
  std::size_t decoded = 0;           ///< packets the stream decoded
  std::size_t matched = 0;           ///< decoded within tolerance of a marker
  std::size_t false_detections = 0;  ///< decoded with no matching marker
  std::size_t truncated = 0;         ///< frames cut off by capture end
  std::size_t symbols = 0;           ///< ground-truth symbols of matched packets
  std::size_t symbol_errors = 0;     ///< mismatches among those
  std::size_t corrupt_chunks = 0;    ///< trace chunks rejected by CRC
  std::uint64_t samples = 0;         ///< capture samples consumed
  /// Merged ingest health: the reader's chunk/resync counters plus the
  /// demodulator's gap/shed counters (see stream/ingest_stats.hpp).
  stream::IngestStats ingest;
  /// Collision/capture outcome, scored against the overlap geometry of
  /// the ground-truth markers (frame length from the demodulator) plus
  /// the demodulator's own SIC counters.
  CollisionCounter collisions;

  double ser() const {
    return symbols == 0 ? 0.0
                        : static_cast<double>(symbol_errors) /
                              static_cast<double>(symbols);
  }
};

/// Score a finished streaming run against ground-truth markers:
/// decoded packets match the nearest marker within
/// `tolerance_samples` of its offset (both lists are offset-ordered).
ReplayStats score_replay(const stream::StreamingDemodulator& demod,
                         std::span<const stream::TraceMarker> markers,
                         std::size_t tolerance_samples);

struct ReplayConfig {
  /// Demodulator knobs: decode seeds (incl. seed_by_offset, which
  /// makes a faulted replay bit-comparable to a clean one frame by
  /// frame), scanner threshold, block size, SIC policy. `saiyan` and
  /// `payload_symbols` are ignored: the trace header supplies them.
  stream::StreamConfig stream;
  /// Impairment tolerance: read the trace in skip-and-resync mode and
  /// feed every recovered gap to StreamingDemodulator::note_gap so the
  /// replay survives corrupt chunks instead of stopping at the first.
  bool resync = false;
};

/// Read a trace file and replay it end to end. The receiver is
/// reconstructed as core::SaiyanConfig::make(meta.phy, meta.mode).
/// Throws std::runtime_error with TraceReader::open's message when the
/// file cannot be opened or its header is malformed. Corrupted chunks
/// stop the replay and are counted in the stats — unless cfg.resync,
/// in which case the replay skips to the next valid chunk, realigns
/// the sample timeline, and keeps going (losses land in `ingest`).
ReplayStats replay_trace(const std::string& path, const ReplayConfig& cfg = {});

}  // namespace saiyan::sim
