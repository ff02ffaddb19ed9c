#include "gateway/gateway_metrics.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <tuple>
#include <vector>

namespace saiyan::gateway {

namespace {

using obs::Kind;
using obs::Metric;

// Fields that `stats` and `health` both carry.
constexpr Metric kUptime{"uptime_s", "saiyan_uptime_seconds", Kind::kGauge,
                         "Seconds since gateway start"};
constexpr Metric kDegradationLevel{
    "degradation_level", "saiyan_degradation_level", Kind::kGauge,
    "Current degradation ladder rung (0=healthy)"};
constexpr Metric kDegradationTransitions{
    "degradation_transitions", "saiyan_degradation_transitions_total",
    Kind::kCounter, "Degradation ladder level changes"};
constexpr Metric kWatchdogCancels{"watchdog_cancels",
                                  "saiyan_watchdog_cancels_total",
                                  Kind::kCounter,
                                  "Jobs cancelled for a missed heartbeat"};
constexpr Metric kDeadlineCancels{"deadline_cancels",
                                  "saiyan_deadline_cancels_total",
                                  Kind::kCounter,
                                  "Jobs cancelled for a blown deadline"};
constexpr Metric kRescanBacklog{"rescan_backlog"};

// Labeled families over parts that may be empty: declared up front so
// their HELP and TYPE show even with no stage, worker or link yet.
constexpr Metric kStageLatency{{}, "saiyan_stage_latency_microseconds",
                               Kind::kHistogram,
                               "Per-stage pipeline latency"};
constexpr Metric kStageSaturated{
    "saturated", "saiyan_stage_latency_saturated_total", Kind::kCounter,
    "Per-stage samples in the open-ended histogram bucket"};
constexpr Metric kWorkerFrames{"frames", "saiyan_worker_frames_total",
                               Kind::kCounter, "Frames decoded per worker"};
constexpr Metric kWorkerJobs{"jobs", "saiyan_worker_jobs_total",
                             Kind::kCounter, "Jobs completed per worker"};
constexpr Metric kLinkFrames{
    {}, "saiyan_link_frames_total", Kind::kCounter,
    "Frames decoded per link (top-K by frames; rest in tag=\"other\")"};
constexpr Metric kLinkSnr{{}, "saiyan_link_snr_db", Kind::kGauge,
                          "EWMA frame SNR per link (top-K by frames)"};

void worker_part(obs::FieldList& out, std::size_t i) {
  const std::string n = std::to_string(i);
  out.part("worker." + n + ".", "worker=\"" + n + "\"");
}

void link_part(obs::FieldList& out, const obs::LinkSnapshot& l) {
  const std::string t = std::to_string(l.tag_id);
  const std::string c = std::to_string(l.channel);
  out.part("link." + t + "." + c + ".",
           "tag=\"" + t + "\",channel=\"" + c + "\"");
}

/// The merged ingest counters (IngestStats::counters()) and rejection
/// classes.
void describe_ingest(const stream::IngestStats& s, obs::FieldList& out) {
  out.part("ingest.");
  for (const auto& [name, member] : stream::IngestStats::counters()) {
    out.add({name, "saiyan_ingest_events_total", Kind::kCounter,
             "Ingest recovery and shedding events by kind"},
            s.*member, "kind=\"" + std::string(name) + '"');
  }
  out.add({"total_errors"}, s.total_errors());
  out.part();
  for (std::size_t i = 1; i < s.errors.size(); ++i) {
    const auto err = static_cast<stream::IngestError>(i);
    out.add({{}, "saiyan_ingest_errors_total", Kind::kCounter,
             "Rejected input by classification"},
            s.errors[i],
            "class=\"" + std::string(stream::to_string(err)) + '"');
  }
}

/// Registry summary shared by `stats` and `links`.
void describe_registry(const obs::LinkRegistrySnapshot& r,
                       obs::FieldList& out) {
  out.add({"links_tracked", "saiyan_links_tracked", Kind::kGauge,
           "Distinct tag/channel links in the registry"},
          std::uint64_t{r.links.size()});
  out.add({"link_evictions", "saiyan_link_evictions_total", Kind::kCounter,
           "Links LRU-evicted from the bounded registry"},
          r.evictions);
  if (r.noise_floor_valid) out.add({"noise_floor_dbm"}, r.noise_floor_dbm);
  out.add({{}, "saiyan_noise_floor_valid", Kind::kGauge,
           "1 once an idle-air noise estimate exists"},
          std::uint64_t{r.noise_floor_valid});
  out.add({{}, "saiyan_noise_floor_db", Kind::kGauge,
           "Rolling idle-air noise floor, dBm (-200 until valid)"},
          r.noise_floor_valid ? r.noise_floor_dbm
                              : obs::LinkTelemetry::kNoFloorDbm);
}

std::vector<const obs::LinkSnapshot*> order_links(
    const obs::LinkRegistrySnapshot& snap, const LinkQuery& q) {
  // By the sort field (frames and last seen descending, SNR ascending:
  // worst first), then tag and channel.
  const auto key = [&q](const obs::LinkSnapshot* l) {
    using Sort = LinkQuery::Sort;
    const double k = q.sort == Sort::kFrames ? -static_cast<double>(l->frames)
                     : q.sort == Sort::kSnr  ? l->ewma_snr_db
                     : q.sort == Sort::kLastSeen
                         ? -static_cast<double>(l->last_seen_us)
                         : 0.0;
    return std::tuple(k, l->tag_id, l->channel);
  };
  std::vector<const obs::LinkSnapshot*> order;
  for (const obs::LinkSnapshot& l : snap.links) order.push_back(&l);
  std::sort(order.begin(), order.end(),
            [&](const obs::LinkSnapshot* a, const obs::LinkSnapshot* b) {
              return key(a) < key(b);
            });
  if (q.top != 0 && order.size() > q.top) order.resize(q.top);
  return order;
}

}  // namespace

saiyan::Result<ReadoutQuery> parse_readout_query(std::string_view text,
                                                 bool links) {
  ReadoutQuery q;
  std::istringstream in{std::string(text)};
  for (std::string tok; in >> tok;) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return saiyan::Error{"expected key=value, got '" + tok + "'"};
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "format") {
      if (val != "text" && val != "json") {
        return saiyan::Error{"unknown format '" + val + "' (text|json)"};
      }
      q.format = val == "json" ? obs::Format::kJson : obs::Format::kText;
    } else if (links && key == "top") {
      const auto [ptr, ec] =
          std::from_chars(val.data(), val.data() + val.size(), q.links.top);
      if (ec != std::errc{} || ptr != val.data() + val.size()) {
        return saiyan::Error{"bad top '" + val + "'"};
      }
    } else if (links && key == "sort") {
      if (val == "frames") {
        q.links.sort = LinkQuery::Sort::kFrames;
      } else if (val == "snr") {
        q.links.sort = LinkQuery::Sort::kSnr;
      } else if (val == "last_seen") {
        q.links.sort = LinkQuery::Sort::kLastSeen;
      } else if (val == "tag") {
        q.links.sort = LinkQuery::Sort::kTag;
      } else {
        return saiyan::Error{"unknown sort '" + val +
                             "' (frames|snr|last_seen|tag)"};
      }
    } else {
      return saiyan::Error{"unknown option '" + key + "'" +
                           (links ? " (format, top, sort)" : " (format)")};
    }
  }
  return q;
}

void describe(const GatewayStats& s, obs::FieldList& out) {
  out.add(kUptime, s.uptime_s);
  out.add({"workers", "saiyan_workers", Kind::kGauge,
           "Demodulation worker threads"},
          std::uint64_t{s.workers});
  out.add({"subscribers", "saiyan_subscribers", Kind::kGauge,
           "Registered frame subscribers"},
          std::uint64_t{s.subscribers});
  out.add({"jobs_enqueued", "saiyan_jobs_enqueued_total", Kind::kCounter,
           "Jobs accepted"},
          s.jobs_enqueued);
  out.add({"jobs_done", "saiyan_jobs_done_total", Kind::kCounter,
           "Jobs completed"},
          s.jobs_done);
  out.add({"jobs_failed", "saiyan_jobs_failed_total", Kind::kCounter,
           "Jobs failed or cancelled"},
          s.jobs_failed);
  out.add({"streams_open", "saiyan_streams_open", Kind::kGauge,
           "Live push-streams not yet closed"},
          s.streams_open);
  out.add({"config_reloads", "saiyan_config_reloads_total", Kind::kCounter,
           "Config reloads applied"},
          s.config_reloads);
  out.add({"frames_decoded", "saiyan_frames_decoded_total", Kind::kCounter,
           "Frames decoded"},
          s.frames_decoded);
  out.add({"symbols_decoded", "saiyan_symbols_decoded_total", Kind::kCounter,
           "Payload symbols decoded"},
          s.symbols_decoded);
  out.add({"truncated_frames", "saiyan_truncated_frames_total",
           Kind::kCounter, "Frames cut off by capture end"},
          s.truncated_frames);
  out.add({"samples_consumed", "saiyan_samples_consumed_total",
           Kind::kCounter, "IQ samples consumed"},
          s.samples_consumed);
  out.add({"chunks_ingested", "saiyan_chunks_ingested_total", Kind::kCounter,
           "Capture chunks ingested"},
          s.chunks_ingested);
  out.add({"markers_expected", "saiyan_markers_expected_total",
           Kind::kCounter,
           "Ground-truth frames promised by enqueued trace markers"},
          s.markers_expected);
  out.add({"frames_per_sec"}, s.frames_per_sec);
  out.add({"msamples_per_sec"}, s.msamples_per_sec);

  out.add({"latency_p50_us"}, s.latency_p50_us);
  out.add({"latency_p99_us"}, s.latency_p99_us);
  out.add({"latency_max_us"}, s.latency_max_us);
  out.add({"latency_count"}, s.latency_count);
  out.add({"latency_sum_us"}, s.latency_sum_us);
  out.add({"latency_saturated", "saiyan_frame_latency_saturated_total",
           Kind::kCounter,
           "Chunk-to-frame samples in the open-ended histogram bucket "
           "(nonzero means quantiles clamp low)"},
          s.latency_saturated);
  out.add({{}, "saiyan_frame_latency_microseconds", Kind::kHistogram,
           "Chunk-arrival to frame-decode latency"},
          obs::HistogramValue{
              {s.latency_buckets.begin(), s.latency_buckets.end()},
              s.latency_sum_us});

  out.add(kStageLatency, {});
  out.add(kStageSaturated, {});
  for (const StageLatencySnapshot& st : s.stages) {
    const std::string name = st.stage;
    out.part("stage." + name + ".", "stage=\"" + name + "\"");
    out.add({"count"}, st.count);
    out.add({"sum_us"}, st.sum_us);
    out.add({"p50_us"}, st.p50_us);
    out.add({"p99_us"}, st.p99_us);
    out.add({"max_us"}, st.max_us);
    out.add(kStageSaturated, st.saturated);
    out.add(kStageLatency, obs::HistogramValue{
                               {st.buckets.begin(), st.buckets.end()},
                               st.sum_us});
  }
  out.part();

  // Link telescope. Per-link series are capped at the link_top_k
  // busiest links (scrape cardinality bound); the rest fold into
  // tag="other", always present, so frame totals still sum correctly.
  describe_registry(s.links, out);
  out.add({"link_frames_total"}, s.links.frames_total);
  out.add(kLinkFrames, {});
  out.add(kLinkSnr, {});
  std::uint64_t other = 0;
  const auto busiest = order_links(s.links, LinkQuery{});
  for (std::size_t i = 0; i < busiest.size(); ++i) {
    if (i < s.link_top_k) {
      link_part(out, *busiest[i]);
      out.add(kLinkFrames, busiest[i]->frames);
      out.add(kLinkSnr, busiest[i]->ewma_snr_db);
    } else {
      other += busiest[i]->frames;
    }
  }
  out.part();
  out.add(kLinkFrames, other, "tag=\"other\",channel=\"all\"");

  out.add({"trace_events_dropped", "saiyan_trace_events_dropped_total",
           Kind::kCounter, "Flight-recorder events overwritten before a dump"},
          s.trace_events_dropped);
  out.add(kWatchdogCancels, s.watchdog_cancels);
  out.add(kDeadlineCancels, s.deadline_cancels);
  out.add(kDegradationLevel, std::uint64_t{s.degradation_level});
  out.add(kDegradationTransitions, s.degradation_transitions);

  describe_ingest(s.ingest, out);

  out.add(kWorkerFrames, {});
  out.add(kWorkerJobs, {});
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    const WorkerSnapshot& w = s.per_worker[i];
    worker_part(out, i);
    out.add(kWorkerFrames, w.frames);
    out.add({"symbols"}, w.symbols);
    out.add({"samples"}, w.samples);
    out.add({"chunks"}, w.chunks);
    out.add(kWorkerJobs, w.jobs);
    out.add({"truncated"}, w.truncated);
  }
}

void describe(const GatewayHealth& h, obs::FieldList& out) {
  out.add(kUptime, h.uptime_s);
  out.add({"config_generation"}, h.config_generation);
  out.add(kDegradationLevel, std::uint64_t{h.degradation_level});
  out.add({"degradation_name"}, h.degradation_name);
  out.add(kDegradationTransitions, h.degradation_transitions);
  out.add(kWatchdogCancels, h.watchdog_cancels);
  out.add(kDeadlineCancels, h.deadline_cancels);
  out.add({"jobs_cancelled"}, h.jobs_cancelled);
  out.add(kRescanBacklog, h.rescan_backlog);
  out.add({"window_p99_us"}, h.window_p99_us);
  for (std::size_t i = 0; i < h.workers.size(); ++i) {
    const WorkerHealth& w = h.workers[i];
    worker_part(out, i);
    out.add({"busy"}, std::uint64_t{w.busy});
    out.add({"job"}, w.job);
    out.add({"job_age_ms"}, w.job_age_ms);
    out.add({"heartbeat_age_ms"}, w.heartbeat_age_ms);
    out.add({"cancels"}, w.cancels);
    out.add(kRescanBacklog, w.rescan_backlog);
    out.add({"jobs_completed"}, w.jobs_completed);
  }
}

void describe_links(const obs::LinkRegistrySnapshot& snap,
                    const LinkQuery& q, obs::FieldList& out) {
  const auto order = order_links(snap, q);
  describe_registry(snap, out);
  out.add({"links_listed"}, std::uint64_t{order.size()});
  out.add({"link_capacity"}, std::uint64_t{snap.capacity});
  out.add({"frames_total"}, snap.frames_total);
  for (const obs::LinkSnapshot* l : order) {
    link_part(out, *l);
    out.add({"frames"}, l->frames);
    out.add({"collided"}, l->collided_frames);
    out.add({"sic_rescued"}, l->sic_rescued);
    out.add({"lost"}, l->lost_frames);
    out.add({"snr_db"}, l->ewma_snr_db);
    out.add({"cfo_hz"}, l->ewma_cfo_hz);
    out.add({"timing"}, l->ewma_timing);
    out.add({"margin"}, l->ewma_margin);
    out.add({"latency_us"}, l->ewma_latency_us);
    out.add({"last_snr_db"}, l->last_snr_db);
    out.add({"last_seen_us"}, l->last_seen_us);
    out.add({"last_packet_start"}, l->last_packet_start);
  }
}

std::string GatewayStats::to_text() const {
  return obs::render(*this, obs::Format::kText);
}

std::string GatewayHealth::to_text() const {
  return obs::render(*this, obs::Format::kText);
}

std::string to_prometheus(const GatewayStats& s) {
  return obs::render(s, obs::Format::kPrometheus);
}

std::string links_to_text(const obs::LinkRegistrySnapshot& snap,
                          const LinkQuery& q) {
  obs::FieldList list;
  describe_links(snap, q, list);
  return obs::render(list, obs::Format::kText);
}

}  // namespace saiyan::gateway
