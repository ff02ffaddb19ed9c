// Fully populated snapshots for the metric-readout tests.
//
// Every field is set, nonzero where it can be, and distinct from its
// neighbours, so a readout that drops, repeats or swaps a field shows
// up as a changed line. The stats snapshot has two workers, every
// pipeline stage, all ingest counters and error classes, more links
// than its top-K budget and a valid noise floor; the health snapshot
// has one busy and one idle worker.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gateway/gateway_stats.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/stage_metrics.hpp"
#include "stream/ingest_stats.hpp"
#include "stream/trace_segments.hpp"

namespace saiyan::fixtures {

inline obs::LinkRegistrySnapshot full_link_registry() {
  obs::LinkRegistrySnapshot r;
  r.frames_total = 1234;
  r.evictions = 3;
  r.capacity = 64;
  r.noise_floor_dbm = -101.25;
  r.noise_floor_valid = true;
  for (std::uint32_t i = 0; i < 5; ++i) {
    obs::LinkSnapshot l;
    l.tag_id = 10 + i;
    l.channel = i % 2;
    l.frames = 100 + 37 * ((i * 3) % 5);  // distinct, unsorted
    l.collided_frames = 2 + i;
    l.sic_rescued = 1 + i;
    l.lost_frames = i;
    l.ewma_snr_db = 12.5 - 2.25 * i;
    l.ewma_cfo_hz = -150.5 + 10.0 * i;
    l.ewma_timing = 0.125 * i - 0.25;
    l.ewma_margin = 0.0625 + 0.5 * i;
    l.ewma_latency_us = 850.75 + i;
    l.last_snr_db = 11.0 - i;
    l.last_cfo_hz = -149.0 + i;
    l.last_seen_us = 900000 + 1000 * i;
    l.last_packet_start = 4000000 + 65536 * i;
    r.links.push_back(l);
  }
  return r;
}

inline gateway::GatewayStats full_gateway_stats() {
  gateway::GatewayStats s;
  s.uptime_s = 12.5;
  s.workers = 2;
  s.subscribers = 3;
  s.jobs_enqueued = 9;
  s.jobs_done = 7;
  s.jobs_failed = 1;
  s.streams_open = 1;
  s.config_reloads = 2;
  s.frames_decoded = 1234;
  s.symbols_decoded = 39488;
  s.truncated_frames = 4;
  s.samples_consumed = 50000000;
  s.chunks_ingested = 6104;
  s.markers_expected = 1300;
  s.frames_per_sec = 98.72;
  s.msamples_per_sec = 4.0;
  s.latency_p50_us = 1500;
  s.latency_p99_us = 9000;
  s.latency_max_us = 12000;
  s.latency_buckets[10] = 600;
  s.latency_buckets[11] = 600;
  s.latency_buckets[14] = 30;
  s.latency_buckets[obs::LatencyHistogram::kBuckets - 1] = 4;
  s.latency_count = 1234;
  s.latency_sum_us = 2100000;
  s.latency_saturated = 4;
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    gateway::StageLatencySnapshot st;
    st.stage = obs::to_string(static_cast<obs::Stage>(i));
    st.count = 100 + i;
    st.sum_us = 5000 + 100 * i;
    st.p50_us = 40 + i;
    st.p99_us = 90 + i;
    st.max_us = 120 + i;
    st.saturated = i;
    st.buckets[5 + i] = 60;
    st.buckets[7 + i] = 40 + i - st.saturated;
    st.buckets[obs::LatencyHistogram::kBuckets - 1] = st.saturated;
    s.stages.push_back(st);
  }
  s.trace_events_dropped = 17;
  s.watchdog_cancels = 2;
  s.deadline_cancels = 1;
  s.degradation_level = 2;
  s.degradation_transitions = 5;

  stream::IngestStats& in = s.ingest;
  in.chunks_ok = 6100;
  in.chunks_corrupt = 4;
  in.resyncs = 3;
  in.bytes_skipped = 4096;
  in.samples_lost = 1024;
  in.gaps = 6;
  in.gap_samples = 8192;
  in.spans_dropped = 7;
  in.sic_shed = 8;
  in.rescans_dropped = 9;
  in.rescans_expired = 10;
  in.spans_shed = 11;
  in.frames_dropped_subscriber = 12;
  in.jobs_cancelled = 13;
  for (std::size_t i = 1; i < in.errors.size(); ++i) in.errors[i] = 20 + i;
  in.last_error = stream::IngestError::kChunkCrc;

  s.per_worker.resize(2);
  s.per_worker[0] = {1000, 32000, 40000000, 4880, 5, 3};
  s.per_worker[1] = {234, 7488, 10000000, 1224, 2, 1};

  s.links = full_link_registry();
  s.link_top_k = 3;  // five links: two fold into tag="other"
  return s;
}

inline gateway::GatewayHealth full_gateway_health() {
  gateway::GatewayHealth h;
  h.uptime_s = 42.125;
  h.config_generation = 3;
  h.degradation_level = 1;
  h.degradation_name = "reduce_sic";
  h.degradation_transitions = 4;
  h.watchdog_cancels = 2;
  h.deadline_cancels = 1;
  h.jobs_cancelled = 3;
  h.rescan_backlog = 6;
  h.window_p99_us = 7700;
  gateway::WorkerHealth busy;
  busy.busy = true;
  busy.job = 41;
  busy.job_age_ms = 250;
  busy.heartbeat_age_ms = 12;
  busy.cancels = 2;
  busy.rescan_backlog = 6;
  busy.jobs_completed = 19;
  gateway::WorkerHealth idle;
  idle.cancels = 0;
  idle.rescan_backlog = 1;
  idle.jobs_completed = 23;
  h.workers = {busy, idle};
  return h;
}

inline stream::RecoveryReport full_recovery_report() {
  stream::RecoveryReport r;
  r.markers.resize(4);
  r.sealed_segments = 2;
  r.salvaged_samples = 300000;
  r.torn_tail = true;
  for (std::uint64_t i = 0; i < 3; ++i) {
    stream::SegmentInfo seg;
    seg.index = i;
    seg.sealed = i < 2;
    seg.readable = true;
    seg.complete = i == 0;
    seg.samples = 100000 + i;
    seg.chunks = 7 + i;
    seg.stats.chunks_corrupt = i;
    r.segments.push_back(seg);
  }
  return r;
}

}  // namespace saiyan::fixtures
