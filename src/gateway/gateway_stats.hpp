// Gateway serving statistics: lock-free on the serving path.
//
// MDS2's operational lesson (PAPERS.md) is that statistics queries
// must not perturb the serving path: an operator polling `stats` once
// a second must cost the workers nothing. Two mechanisms deliver that:
//
//   * hot counters (frames, samples, latency histogram buckets) are
//     per-worker relaxed atomics, padded to their own cache line —
//     a worker increments without synchronizing with anyone;
//   * the composite IngestStats block (too wide for one atomic) is
//     published through a per-worker obs::Seqlock (obs/seqlock.hpp):
//     the worker bumps a version counter around its update, the
//     snapshot thread retries the copy until it reads a stable even
//     version. The payload is copied as relaxed atomic words between
//     paired release/acquire fences, so a snapshot is race-free under
//     the C++ memory model and never mixes two updates. Writers never
//     wait; readers retry, which only matters while a worker is
//     mid-publish.
//
// Latency is tracked as a log2 histogram over microseconds (see
// obs/latency_histogram.hpp, where the histogram moved when every
// pipeline stage grew one), so p50/p99 come out of 48 counters with
// ~2x resolution and no per-sample allocation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/latency_histogram.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/stage_metrics.hpp"
#include "stream/ingest_stats.hpp"

namespace saiyan::gateway {

/// One pipeline stage's latency distribution as seen in a snapshot
/// (source: the shared obs::StageMetrics every worker records into).
struct StageLatencySnapshot {
  const char* stage = "?";  ///< obs::to_string(Stage) — stable literal
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
  /// Samples in the open-ended last bucket: quantiles that land there
  /// clamp to the bucket's lower edge, so a nonzero count means the
  /// p50/p99/max above may silently understate the truth.
  std::uint64_t saturated = 0;
  /// Raw log2 bucket counts (bucket edges are
  /// obs::LatencyHistogram::bucket_upper_us) — what the Prometheus
  /// exporter renders as cumulative le="..." series.
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> buckets{};
};

/// Per-worker counters as seen in a snapshot.
struct WorkerSnapshot {
  std::uint64_t frames = 0;     ///< packets decoded
  std::uint64_t symbols = 0;    ///< payload symbols decoded
  std::uint64_t samples = 0;    ///< IQ samples consumed
  std::uint64_t chunks = 0;     ///< chunks ingested
  std::uint64_t jobs = 0;       ///< trace/stream jobs completed
  std::uint64_t truncated = 0;  ///< frames cut off by capture end
};

/// One coherent view of the gateway, produced by Gateway::stats()
/// without stopping any worker.
struct GatewayStats {
  double uptime_s = 0.0;
  std::size_t workers = 0;
  std::size_t subscribers = 0;

  std::uint64_t jobs_enqueued = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;   ///< trace open/parse failures
  std::uint64_t streams_open = 0;  ///< live push-streams not yet closed
  std::uint64_t config_reloads = 0;

  std::uint64_t frames_decoded = 0;
  std::uint64_t symbols_decoded = 0;
  std::uint64_t truncated_frames = 0;
  std::uint64_t samples_consumed = 0;
  std::uint64_t chunks_ingested = 0;
  /// Ground-truth frame count summed over the marker tables of every
  /// enqueued trace — what frames_decoded should reach when nothing
  /// is lost.
  std::uint64_t markers_expected = 0;

  double frames_per_sec = 0.0;     ///< over uptime
  double msamples_per_sec = 0.0;   ///< over uptime

  std::uint64_t latency_p50_us = 0;  ///< chunk-to-frame decode latency
  std::uint64_t latency_p99_us = 0;
  std::uint64_t latency_max_us = 0;
  /// Raw chunk-to-frame histogram, for the Prometheus exporter.
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets>
      latency_buckets{};
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum_us = 0;
  /// Chunk-to-frame samples in the open-ended bucket (quantile clamp
  /// flag — see StageLatencySnapshot::saturated).
  std::uint64_t latency_saturated = 0;

  /// Per-stage pipeline latency (scan, decode, sic_cancel, sic_rescan,
  /// gap_realign, deliver), in obs::Stage order.
  std::vector<StageLatencySnapshot> stages;

  /// Flight-recorder events overwritten before any dump read them
  /// (obs::events_dropped_total); 0 when tracing is off or compiled
  /// out.
  std::uint64_t trace_events_dropped = 0;

  /// Self-healing pillar (see docs/ROBUSTNESS.md): watchdog cancels by
  /// cause, and the degradation ladder's current rung + lifetime
  /// transition count.
  std::uint64_t watchdog_cancels = 0;  ///< heartbeat-timeout cancels
  std::uint64_t deadline_cancels = 0;  ///< job-deadline cancels
  std::uint32_t degradation_level = 0;
  std::uint64_t degradation_transitions = 0;

  /// Merged ingest health across workers (trace resyncs, gaps, SIC
  /// shedding, subscriber drops).
  stream::IngestStats ingest;

  std::vector<WorkerSnapshot> per_worker;

  /// Link telescope summary (full per-link windows live behind the
  /// `links` control op / Gateway::links()).
  obs::LinkRegistrySnapshot links;
  /// Labeled-series budget the Prometheus exporter applies to `links`
  /// (GatewayConfig::link.prom_top_k).
  std::size_t link_top_k = 10;

  /// `key value` lines of describe() in gateway_metrics.hpp — the
  /// `stats` payload (documented in docs/GATEWAY.md).
  std::string to_text() const;
};

/// Liveness view of one worker, for the `health` op.
struct WorkerHealth {
  bool busy = false;
  std::uint64_t job = 0;               ///< current job id (when busy)
  std::uint64_t job_age_ms = 0;        ///< since the job started
  std::uint64_t heartbeat_age_ms = 0;  ///< since the last heartbeat
  std::uint64_t cancels = 0;           ///< watchdog cancels fired here
  std::uint64_t rescan_backlog = 0;    ///< queued SIC rescan regions
  std::uint64_t jobs_completed = 0;    ///< lifetime jobs finished here
};

/// Self-healing snapshot produced by Gateway::health() — the payload
/// of the control protocol's `health` op. Cheaper and more pointed
/// than a full stats snapshot: it answers "is anything stuck, and how
/// degraded are we" rather than "how much was decoded".
struct GatewayHealth {
  double uptime_s = 0.0;              ///< since Gateway construction
  std::uint64_t config_generation = 0;  ///< bumps on every reload
  std::uint32_t degradation_level = 0;
  std::string degradation_name;  ///< to_string(DegradationLevel)
  std::uint64_t degradation_transitions = 0;
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t deadline_cancels = 0;
  std::uint64_t jobs_cancelled = 0;   ///< jobs abandoned after a cancel
  std::uint64_t rescan_backlog = 0;   ///< worst backlog across workers
  std::uint64_t window_p99_us = 0;    ///< controller's last windowed p99
  std::vector<WorkerHealth> workers;

  /// `key value` lines of describe() in gateway_metrics.hpp — the
  /// `health` payload.
  std::string to_text() const;
};

}  // namespace saiyan::gateway
