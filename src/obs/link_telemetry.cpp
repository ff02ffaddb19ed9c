#include "obs/link_telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace saiyan::obs {

namespace {

double ewma(double old, double x, double alpha) {
  return old + (x - old) * alpha;
}

}  // namespace

LinkTelemetry::LinkTelemetry(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)),
      keys_(std::max<std::size_t>(capacity, 1), 0) {}

std::size_t LinkTelemetry::find_or_evict_(std::uint64_t key) {
  // Linear probe over the live prefix: capacities are a few hundred
  // and record_frame runs at frame rate, not sample rate, so a scan
  // beats maintaining a separate hash table under the seqlock.
  for (std::size_t i = 0; i < used_; ++i) {
    if (keys_[i] == key) return i;
  }
  if (used_ < slots_.size()) {
    keys_[used_] = key;
    return used_++;
  }
  // Full: reuse the least-recently-seen slot.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].lru < slots_[victim].lru) victim = i;
  }
  keys_[victim] = key;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  // Publish the wipe so a reader sees the old link vanish, not its
  // counters carried over into the new link.
  Slot& s = slots_[victim];
  s.w = Window{};
  s.pub.store(s.w);
  return victim;
}

void LinkTelemetry::record_frame(const FrameDiag& d) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = find_or_evict_(key_(d.tag_id, d.channel));
  Slot& s = slots_[i];
  s.lru = ++lru_clock_;

  Window& w = s.w;
  LinkSnapshot& l = w.link;
  const bool fresh = !w.used;
  w.used = true;
  l.tag_id = d.tag_id;
  l.channel = d.channel;
  l.frames += 1;
  if (d.collided) l.collided_frames += 1;
  if (d.sic_assisted) l.sic_rescued += 1;
  if (d.has_seq) {
    if (w.has_seq) {
      // Sequence counters are symbol-valued and wrap at the symbol
      // alphabet (seq_modulus); any forward step > 1 implies lost
      // frames in between. A zero modulus means a free-running u32.
      std::uint32_t step = d.seq - w.last_seq;
      if (d.seq_modulus > 1) step %= d.seq_modulus;
      if (step > 1 && step < (1u << 16)) {  // gate absurd jumps
        l.lost_frames += step - 1;
      }
    }
    w.last_seq = d.seq;
    w.has_seq = true;
  }
  if (fresh) {
    l.ewma_snr_db = d.snr_db;
    l.ewma_cfo_hz = d.cfo_hz;
    l.ewma_timing = d.timing_offset;
    l.ewma_margin = d.corr_margin;
    l.ewma_latency_us = static_cast<double>(d.latency_us);
  } else {
    l.ewma_snr_db = ewma(l.ewma_snr_db, d.snr_db, kAlpha);
    l.ewma_cfo_hz = ewma(l.ewma_cfo_hz, d.cfo_hz, kAlpha);
    l.ewma_timing = ewma(l.ewma_timing, d.timing_offset, kAlpha);
    l.ewma_margin = ewma(l.ewma_margin, d.corr_margin, kAlpha);
    l.ewma_latency_us =
        ewma(l.ewma_latency_us, static_cast<double>(d.latency_us), kAlpha);
  }
  l.last_snr_db = d.snr_db;
  l.last_cfo_hz = d.cfo_hz;
  l.last_seen_us = d.seen_us;
  l.last_packet_start = d.packet_start;
  s.pub.store(w);
  frames_total_.fetch_add(1, std::memory_order_relaxed);
}

void LinkTelemetry::sample_noise(double watts) {
  if (!(watts > 0.0) || !std::isfinite(watts)) return;
  std::lock_guard<std::mutex> lock(floor_mu_);
  if (floor_valid_ && watts > floor_ewma_ * kNoiseGate) return;
  if (!floor_valid_) {
    floor_ewma_ = watts;
    floor_valid_ = true;
  } else {
    // Fast attack down, slow release up: an occasional polluted sample
    // cannot ratchet the floor upward, while a genuinely quieter band
    // is adopted quickly.
    const double alpha =
        watts < floor_ewma_ ? kFloorAlphaDown : kFloorAlphaUp;
    floor_ewma_ = ewma(floor_ewma_, watts, alpha);
  }
  floor_bits_.store(std::bit_cast<std::uint64_t>(floor_ewma_),
                    std::memory_order_relaxed);
}

double LinkTelemetry::noise_floor_watts() const {
  return std::bit_cast<double>(floor_bits_.load(std::memory_order_relaxed));
}

double LinkTelemetry::noise_floor_dbm() const {
  const double w = noise_floor_watts();
  if (!(w > 0.0)) return kNoFloorDbm;
  return 10.0 * std::log10(w) + 30.0;
}

bool LinkTelemetry::noise_floor_valid() const {
  return noise_floor_watts() > 0.0;
}

LinkRegistrySnapshot LinkTelemetry::snapshot() const {
  LinkRegistrySnapshot out;
  out.capacity = slots_.size();
  out.links.reserve(slots_.size());
  for (const Slot& s : slots_) {
    const Window w = s.pub.load();
    if (w.used) out.links.push_back(w.link);
  }
  out.frames_total = frames_total_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.noise_floor_dbm = noise_floor_dbm();
  out.noise_floor_valid = noise_floor_valid();
  return out;
}

}  // namespace saiyan::obs
