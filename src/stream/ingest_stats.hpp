// Ingest-error taxonomy and per-stream health counters.
//
// A production gateway ingests hostile, lossy bytes: corrupt trace
// files, dropped IQ chunks, clock glitches, collision pileups. Every
// layer of the ingest path (TraceReader chunk parsing, the streaming
// demodulator's desync recovery, the SIC load shedder) classifies what
// it rejected or degraded into one IngestError and counts it here, so
// an operator can distinguish "the capture was clean" from "the reader
// resynced twice and the demodulator shed SIC work under backlog" —
// without any layer having to throw. Strict-mode readers still throw
// on malformed headers; IngestStats is how the *recovering* path stays
// observable.
//
// One struct serves both layers: TraceReader fills the trace-side
// counters, StreamingDemodulator the stream-side ones, and
// sim::replay_trace merges the two views into its ReplayStats.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

namespace saiyan::stream {

/// What exactly was wrong with a rejected piece of input. The chunk
/// classes double as the resync triggers: in recovery mode each one
/// starts a forward scan for the next CRC-valid chunk instead of
/// wedging the reader.
enum class IngestError : std::uint8_t {
  kNone = 0,
  kBadMagic,        ///< file does not start with the trace magic
  kBadVersion,      ///< unknown trace version
  kBadHeader,       ///< truncated or out-of-bounds PHY/meta header
  kBadMarkerTable,  ///< marker table truncated or over file bounds
  kChunkHeader,     ///< absurd chunk length or nonzero reserved field
  kChunkCrc,        ///< chunk payload failed its CRC16
  kChunkTruncated,  ///< chunk payload cut short by end of file
  kTotalMismatch,   ///< EOF sample count disagrees with the header
  kCount,           ///< number of classes (array size, not an error)
};

const char* to_string(IngestError err);

/// Per-stream ingest health counters. All counters are cumulative
/// since construction / the last reset.
struct IngestStats {
  // --- trace layer (filled by TraceReader) -------------------------
  std::uint64_t chunks_ok = 0;       ///< chunks delivered intact
  std::uint64_t chunks_corrupt = 0;  ///< chunk parses abandoned
  std::uint64_t resyncs = 0;         ///< successful skip-and-resync scans
  std::uint64_t bytes_skipped = 0;   ///< bytes discarded while resyncing
  std::uint64_t samples_lost = 0;    ///< estimated samples in skipped bytes

  // --- stream layer (filled by StreamingDemodulator) ---------------
  std::uint64_t gaps = 0;            ///< upstream discontinuities reported
  std::uint64_t gap_samples = 0;     ///< samples zero-filled across gaps
  std::uint64_t spans_dropped = 0;   ///< pending frames abandoned at a gap
  std::uint64_t sic_shed = 0;        ///< cancellations skipped under backlog
  std::uint64_t rescans_dropped = 0; ///< rescan regions evicted (queue cap)
  std::uint64_t rescans_expired = 0; ///< rescan regions aged off the ring
  /// Whole confirmed spans discarded undecoded by the degradation
  /// ladder's last rung (gateway overload, not input damage).
  std::uint64_t spans_shed = 0;

  // --- delivery layer (filled by gateway::Gateway) -----------------
  /// Decoded frames dropped because a subscriber's bounded queue was
  /// full (a slow consumer sheds its own frames; it never stalls the
  /// demodulator workers).
  std::uint64_t frames_dropped_subscriber = 0;
  /// Jobs abandoned by the gateway watchdog (missed heartbeat or a
  /// blown per-job deadline): the stuck job fails with a typed error
  /// instead of hanging drain().
  std::uint64_t jobs_cancelled = 0;

  /// Per-class rejection counts, indexed by IngestError.
  std::array<std::uint64_t, static_cast<std::size_t>(IngestError::kCount)>
      errors{};
  /// Most recent rejection class (kNone when the stream has been clean).
  IngestError last_error = IngestError::kNone;

  void count(IngestError err) {
    last_error = err;
    ++errors[static_cast<std::size_t>(err)];
  }

  std::uint64_t error_count(IngestError err) const {
    return errors[static_cast<std::size_t>(err)];
  }

  std::uint64_t total_errors() const {
    std::uint64_t n = 0;
    for (const std::uint64_t e : errors) n += e;
    return n;
  }

  bool clean() const {
    return total_errors() == 0 && gaps == 0 && sic_shed == 0 &&
           rescans_dropped == 0 && rescans_expired == 0 && spans_shed == 0 &&
           frames_dropped_subscriber == 0 && jobs_cancelled == 0;
  }

  /// The event counters, each listed once: the name is the
  /// `ingest.<name>` stats key and the `kind` label of
  /// saiyan_ingest_events_total, and merge() sums every counter here.
  static constexpr auto counters() {
    using C = std::pair<const char*, std::uint64_t IngestStats::*>;
    return std::array{
        C{"chunks_ok", &IngestStats::chunks_ok},
        C{"chunks_corrupt", &IngestStats::chunks_corrupt},
        C{"resyncs", &IngestStats::resyncs},
        C{"bytes_skipped", &IngestStats::bytes_skipped},
        C{"samples_lost", &IngestStats::samples_lost},
        C{"gaps", &IngestStats::gaps},
        C{"gap_samples", &IngestStats::gap_samples},
        C{"spans_dropped", &IngestStats::spans_dropped},
        C{"sic_shed", &IngestStats::sic_shed},
        C{"rescans_dropped", &IngestStats::rescans_dropped},
        C{"rescans_expired", &IngestStats::rescans_expired},
        C{"spans_shed", &IngestStats::spans_shed},
        C{"frames_dropped_subscriber",
          &IngestStats::frames_dropped_subscriber},
        C{"jobs_cancelled", &IngestStats::jobs_cancelled},
    };
  }

  /// Fold another layer's (or shard's) counters into this one.
  void merge(const IngestStats& other) {
    for (const auto& c : counters()) this->*c.second += other.*c.second;
    for (std::size_t i = 0; i < errors.size(); ++i) errors[i] += other.errors[i];
    if (other.last_error != IngestError::kNone) last_error = other.last_error;
  }
};

}  // namespace saiyan::stream
