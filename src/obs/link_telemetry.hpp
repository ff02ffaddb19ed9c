// Link telescope: per-frame RF diagnostics folded into a bounded
// per-link (tag × channel) registry, plus a rolling noise-floor
// estimate sampled from inter-frame idle spans.
//
// The flight recorder (trace_ring) answers "where does the pipeline
// spend time"; this answers "how healthy is each *link*". Every
// decoded frame carries a FrameDiag computed in the demodulator from
// values it already has in hand — SNR against the tracked noise
// floor, preamble correlation margin, carrier-frequency offset from
// the preamble's symbol-lag autocorrelation, fractional timing offset
// from the scanner peak's neighbors, SIC depth and chunk-to-frame
// latency. The gateway folds each diag into a LinkTelemetry registry
// keyed by decoded tag id × channel.
//
// Concurrency model (one obs::Seqlock per entry, as for GatewayStats):
//
//   * Writers (worker threads recording frames) serialize on one
//     mutex — frame rate is thousands per second, far below
//     contention range — update the entry's writer-private window and
//     publish it with one Seqlock::store().
//   * Readers (stats scrapes, the `links` control op) never take the
//     mutex: snapshot() walks the slot array and Seqlock::load()s each
//     entry, which retries while a store is in flight. Readers never
//     block writers; a torn window is never reported, and the copy is
//     race-free under the C++ memory model.
//
// The registry is bounded: `capacity` slots, least-recently-seen
// eviction with an eviction counter, so a tag-id fuzzing flood cannot
// grow memory. The noise-floor tracker is an asymmetric EWMA (fast
// attack down, slow release up — the classic noise-floor shape, so
// one polluted sample cannot ratchet the floor upward) written only
// from idle blocks and readable lock-free as a packed atomic double.
//
// Nothing here feeds back into decode: every caller gates its diag
// computation on the telemetry pointer, and the registry only ever
// observes. Decode output is bit-identical with telemetry on or off,
// including -DSAIYAN_TRACING=OFF builds (this file does not depend on
// the trace ring).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/seqlock.hpp"

namespace saiyan::obs {

/// Per-frame RF diagnostics, computed where the samples already are
/// (demodulator) and annotated where the identity is known (gateway).
struct FrameDiag {
  std::uint32_t tag_id = 0;   ///< decoded link id (first payload symbol)
  std::uint32_t channel = 0;  ///< operator-assigned channel index
  double snr_db = 0.0;        ///< frame power over tracked noise floor
  double cfo_hz = 0.0;        ///< preamble carrier-frequency offset
  double timing_offset = 0.0; ///< fractional-sample peak offset [-1, 1]
  double corr_margin = 0.0;   ///< preamble score minus confirm threshold
  double noise_floor_dbm = 0.0;  ///< floor snapshot at decode time
  std::uint32_t sic_depth = 0;   ///< cancellation depth the frame decoded at
  bool sic_assisted = false;     ///< decoded from a cancelled residual
  bool collided = false;         ///< overlapped another decoded frame
  std::uint64_t latency_us = 0;  ///< chunk arrival -> frame delivery
  std::uint64_t packet_start = 0;  ///< absolute first preamble sample
  std::uint64_t seen_us = 0;     ///< caller-supplied wall offset (µs)
  std::uint32_t seq = 0;         ///< link sequence counter, if carried
  std::uint32_t seq_modulus = 0; ///< counter wraps at this (0 = no wrap)
  bool has_seq = false;          ///< seq field is meaningful
};

/// One link's rolling window, as copied out by snapshot().
struct LinkSnapshot {
  std::uint32_t tag_id = 0;
  std::uint32_t channel = 0;
  std::uint64_t frames = 0;          ///< frames folded into this window
  std::uint64_t collided_frames = 0; ///< frames flagged collided
  std::uint64_t sic_rescued = 0;     ///< frames decoded off a residual
  std::uint64_t lost_frames = 0;     ///< inferred from sequence gaps
  double ewma_snr_db = 0.0;
  double ewma_cfo_hz = 0.0;
  double ewma_timing = 0.0;
  double ewma_margin = 0.0;
  double ewma_latency_us = 0.0;
  double last_snr_db = 0.0;
  double last_cfo_hz = 0.0;
  std::uint64_t last_seen_us = 0;
  std::uint64_t last_packet_start = 0;
};

/// Whole-registry snapshot: every live link plus the global counters.
struct LinkRegistrySnapshot {
  std::vector<LinkSnapshot> links;   ///< unsorted; callers order as needed
  std::uint64_t frames_total = 0;    ///< frames recorded, ever
  std::uint64_t evictions = 0;       ///< LRU evictions, ever
  std::size_t capacity = 0;
  double noise_floor_dbm = 0.0;      ///< current floor estimate
  bool noise_floor_valid = false;    ///< at least one idle sample folded
};

class LinkTelemetry {
 public:
  /// `capacity` bounds the number of simultaneously tracked links
  /// (minimum 1); the least-recently-seen link is evicted when a new
  /// key arrives at capacity.
  explicit LinkTelemetry(std::size_t capacity = 256);

  LinkTelemetry(const LinkTelemetry&) = delete;
  LinkTelemetry& operator=(const LinkTelemetry&) = delete;

  /// Fold one decoded frame into its link window (creating or
  /// evicting-and-reusing a slot as needed). Any thread.
  void record_frame(const FrameDiag& d);

  /// Fold one idle-block mean power (watts) into the noise floor.
  /// Samples more than `kNoiseGate`× above the current estimate are
  /// rejected as undetected transmissions. Any thread.
  void sample_noise(double watts);

  /// Current noise-floor estimate in watts (0.0 until the first
  /// accepted sample). Lock-free.
  double noise_floor_watts() const;

  /// Current noise-floor estimate in dBm (or `kNoFloorDbm` until the
  /// first accepted sample). Lock-free.
  double noise_floor_dbm() const;
  bool noise_floor_valid() const;

  /// Copy every live link without blocking writers (per-entry
  /// Seqlock::load()). Allocates the result vector; not for the
  /// per-frame path.
  LinkRegistrySnapshot snapshot() const;

  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_total() const {
    return frames_total_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

  /// EWMA weight for the per-link windows: new = old + (x-old)/8.
  static constexpr double kAlpha = 1.0 / 8.0;
  /// Noise-floor EWMA weights: slow release up, fast attack down.
  static constexpr double kFloorAlphaUp = 1.0 / 16.0;
  static constexpr double kFloorAlphaDown = 1.0 / 4.0;
  /// Idle samples this far above the current floor are rejected.
  static constexpr double kNoiseGate = 4.0;
  /// noise_floor_dbm() before any sample is accepted.
  static constexpr double kNoFloorDbm = -200.0;

 private:
  /// What one slot publishes: the link's window plus the writer's
  /// sequence-gap state.
  struct Window {
    bool used = false;
    LinkSnapshot link;
    std::uint32_t last_seq = 0;
    bool has_seq = false;
  };

  struct Slot {
    Seqlock<Window> pub;    ///< what readers copy
    Window w;               ///< writer-private master copy (mu_)
    std::uint64_t lru = 0;  ///< writer-private recency stamp (mu_)
  };

  static std::uint64_t key_(std::uint32_t tag, std::uint32_t channel) {
    return (static_cast<std::uint64_t>(tag) << 32) | channel;
  }

  std::size_t find_or_evict_(std::uint64_t key);  // mu_ held

  mutable std::mutex mu_;            // writers only; readers never take it
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> keys_;  // keys_[i] pairs with slots_[i]
  std::size_t used_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> frames_total_{0};

  // Noise floor: EWMA state is writer-private (guarded by floor_mu_);
  // the published estimate is a packed double readable lock-free.
  mutable std::mutex floor_mu_;
  double floor_ewma_ = 0.0;
  bool floor_valid_ = false;
  std::atomic<std::uint64_t> floor_bits_{0};
};

}  // namespace saiyan::obs
