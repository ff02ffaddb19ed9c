// Gateway benchmark program.
//
//   saiyan_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--setup-only]
//
// Drives the library only through its public entry points. With
// --trace 0 it measures the end-to-end metrics (untraced); with
// --trace 1 it runs the same workload through each layer's entry point
// inside benchmark-side spans and prints the per-layer budget. Every
// run checks its output: the frames the gateway delivers must equal an
// offline StreamingDemodulator pass over the same samples, and must
// match the ground-truth markers. --setup-only times one cold set-up
// (Gateway::create plus the process-wide template and FFT-plan fill)
// and exits; perfbench/run.py repeats it in fresh processes.
//
// The last line of standard output is the result JSON. Exit status: 0
// when every check passed, 1 when a check failed (the result line says
// correct: false), 2 on a usage or environment error (no result line).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_demod.hpp"
#include "core/preamble_detector.hpp"
#include "core/receiver_chain.hpp"
#include "gateway/gateway.hpp"
#include "sic/collision_resolver.hpp"
#include "stream/packet_scanner.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace saiyan;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Generator lateness above this (p99) marks a live_push run invalid: one
/// chunk period, so 99 % of chunks went out before the next one was due
/// and the offered rate held. Shorter host stalls stay in the run; frame
/// latency counts them, since it is measured from the due time.
constexpr double kMaxGenLagMs = 1e3 * kChunk / kLiveRate;
/// Closed-loop replays repeat their timed pass at least this often.
/// Every run lasts until it has one latency window (kMinLatencySamples
/// frames, enough for a p90; see windowed_percentile()).
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinLatencySamples = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".bench_build/perfbench-run";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "saiyan_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      usage_error("unknown argument " + a);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!(o.seconds > 0.0)) usage_error("--seconds must be positive");
  return o;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename T>
T unwrap(saiyan::Result<T> r, const char* what) {
  if (!r.ok()) usage_error(std::string(what) + ": " + r.message());
  return std::move(r).value();
}

// ------------------------------------------------------------- workload

/// A workload instance: its capture, the exact samples the gateway
/// decodes (read back from the trace for replays, so float32 rounding
/// is included) and the files set-up and the replays read.
struct Prepared {
  Workload w;
  std::uint64_t seed = 1;
  std::vector<Frame> markers;  ///< ground truth, sorted by start
  dsp::Signal samples;
  std::string trace_path;      ///< replays only
  std::string warm_path;       ///< replays only: the set-up trace
  dsp::Signal warm_samples;    ///< live_push only: the set-up capture
  std::uint64_t trace_bytes = 0;
  double air_s = 0.0;
  std::size_t spsym = 0;

  std::size_t chunks() const { return (samples.size() + kChunk - 1) / kChunk; }
};

dsp::Signal read_back(const std::string& path) {
  stream::TraceReader reader = unwrap(stream::TraceReader::open(path), "open");
  dsp::Signal all;
  all.reserve(reader.meta().total_samples);
  dsp::Signal chunk;
  while (reader.next_chunk(chunk) == stream::ChunkStatus::kOk) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  if (reader.stats().chunks_corrupt != 0) usage_error("corrupt trace " + path);
  return all;
}

Prepared prepare(const Options& o) {
  Prepared p;
  p.w = workload_by_name(o.workload);
  p.seed = o.seed;
  const sim::CaptureConfig cfg = capture_config(p.w, o.seed, /*warm=*/false);
  const sim::CaptureConfig warm_cfg = capture_config(p.w, o.seed, /*warm=*/true);
  p.spsym = cfg.saiyan.phy.samples_per_symbol();
  std::filesystem::create_directories(o.out_dir);
  const std::string stem =
      o.out_dir + "/" + p.w.name + "-seed" + std::to_string(o.seed);
  const sim::Capture warm = sim::generate_capture(warm_cfg);
  if (p.w.replay) {
    p.warm_path = stem + ".warm.sytrc";
    sim::write_capture(warm, warm_cfg, p.warm_path, kChunk, p.w.float32);
  } else {
    p.warm_samples = warm.samples;
  }
  if (o.setup_only) return p;

  sim::Capture cap = sim::generate_capture(cfg);
  for (const stream::TraceMarker& m : cap.markers) {
    p.markers.push_back(Frame{m.sample_offset, m.symbols});
  }
  std::sort(p.markers.begin(), p.markers.end());
  if (p.w.replay) {
    p.trace_path = stem + ".sytrc";
    sim::write_capture(cap, cfg, p.trace_path, kChunk, p.w.float32);
    p.trace_bytes = std::filesystem::file_size(p.trace_path);
    p.samples = read_back(p.trace_path);
  } else {
    p.samples = std::move(cap.samples);
  }
  p.air_s = static_cast<double>(p.samples.size()) / kSampleRate;
  return p;
}

gateway::GatewayConfig gateway_config(const Workload& w) {
  gateway::GatewayConfig g;
  g.workers = 1;
  g.stream.saiyan = phy_config();
  g.stream.payload_symbols = kPayloadSymbols;
  g.stream.sic.depth = w.sic_depth;
  return g;
}

/// The stream config a gateway worker runs this workload with.
stream::StreamConfig worker_config(const Workload& w) {
  stream::StreamConfig sc = gateway_config(w).worker_stream_config();
  sc.saiyan = phy_config();
  sc.payload_symbols = kPayloadSymbols;
  return sc;
}

std::vector<Frame> frames_of(const stream::StreamingDemodulator& d) {
  std::vector<Frame> out;
  for (const stream::DecodedPacket& pk : d.packets()) {
    const auto syms = d.symbols(pk);
    out.push_back(Frame{pk.packet_start, {syms.begin(), syms.end()}});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------- gateway

/// What the subscriber keeps per frame. The handler only stamps the
/// receipt and appends into buffers reserved up front; the main thread
/// reads them after drain(), which orders it after every delivery.
struct Receipts {
  struct Rec {
    std::uint64_t job = 0;
    std::uint64_t start = 0;
    std::uint64_t latency_us = 0;  ///< FrameRecord: chunk in -> decoded
    Clock::time_point at;          ///< subscriber receipt
    std::size_t sym_off = 0;
    std::size_t n = 0;
  };
  std::vector<Rec> recs;
  std::vector<std::uint32_t> syms;

  void on_frame(const gateway::FrameRecord& fr) {
    const Clock::time_point now = Clock::now();
    recs.push_back(Rec{fr.job, fr.packet_start, fr.latency_us, now,
                       syms.size(), fr.symbols.size()});
    syms.insert(syms.end(), fr.symbols.begin(), fr.symbols.end());
  }

  std::vector<Frame> frames_of_job(std::uint64_t job) const {
    std::vector<Frame> out;
    for (const Rec& r : recs) {
      if (r.job != job) continue;
      const auto b = syms.begin() + static_cast<std::ptrdiff_t>(r.sym_off);
      out.push_back(Frame{r.start, {b, b + static_cast<std::ptrdiff_t>(r.n)}});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void clear() {
    recs.clear();
    syms.clear();
  }
};

/// The gateway under test plus its subscriber's buffers. Not movable:
/// the delivery thread holds the address of `rx`.
struct GatewayUnderTest {
  std::unique_ptr<gateway::Gateway> gw;
  Receipts rx;
  /// Job ids are handed out from 0 in call order, over enqueue_trace and
  /// open_stream alike.
  std::uint64_t next_job = 0;

  GatewayUnderTest() {
    rx.recs.reserve(4096);
    rx.syms.reserve(4096 * kPayloadSymbols);
  }
  GatewayUnderTest(const GatewayUnderTest&) = delete;
  GatewayUnderTest& operator=(const GatewayUnderTest&) = delete;
};

void drain(GatewayUnderTest& s) { unwrap(s.gw->drain(), "drain"); }

std::uint64_t enqueue(GatewayUnderTest& s, const std::string& path) {
  const std::uint64_t id = unwrap(s.gw->enqueue_trace(path), "enqueue_trace");
  if (id != s.next_job) usage_error("unexpected job id");
  ++s.next_job;
  return id;
}

/// Push `samples` as one live stream, as fast as the gateway takes it.
std::uint64_t push_all(GatewayUnderTest& s, const dsp::Signal& samples) {
  const gateway::StreamId sid = s.gw->open_stream();
  std::span<const dsp::Complex> rest(samples);
  while (!rest.empty()) {
    const std::size_t take = std::min(kChunk, rest.size());
    unwrap(s.gw->push(sid, rest.first(take)), "push");
    rest = rest.subspan(take);
  }
  unwrap(s.gw->close_stream(sid), "close_stream");
  return s.next_job++;
}

/// Set-up: Gateway::create and one tiny job that fills the process-wide
/// templates, FFT plans and the worker's demodulator. Returns seconds.
double setup(const Prepared& p, GatewayUnderTest& s) {
  const Clock::time_point t0 = Clock::now();
  s.gw = unwrap(gateway::Gateway::create(gateway_config(p.w)), "create");
  Receipts* rx = &s.rx;
  s.gw->subscribe([rx](const gateway::FrameRecord& fr) { rx->on_frame(fr); });
  if (p.w.replay) {
    enqueue(s, p.warm_path);
  } else {
    push_all(s, p.warm_samples);
  }
  drain(s);
  const double dt = since(t0);
  s.rx.clear();
  return dt;
}

/// CPU seconds of every thread but this one: the gateway's worker,
/// delivery and watchdog threads. The benchmark's own main thread is
/// left out; in live_push it spin-waits for the schedule.
double gateway_cpu_s() { return process_cpu_s() - thread_cpu_s(); }

struct PassTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< gateway_cpu_s() over the pass
  std::uint64_t job = 0;
};

PassTiming replay_pass(const Prepared& p, GatewayUnderTest& s) {
  PassTiming t;
  const double cpu0 = gateway_cpu_s();
  const Clock::time_point t0 = Clock::now();
  t.job = enqueue(s, p.trace_path);
  drain(s);
  t.wall_s = since(t0);
  t.cpu_s = gateway_cpu_s() - cpu0;
  return t;
}

/// One open-loop live run: `passes` back-to-back streams of the capture,
/// each chunk pushed at its due time on a fixed schedule that does not
/// wait for the gateway.
struct LiveRun {
  Clock::time_point t0;         ///< due time of the first chunk
  double wall_s = 0.0;          ///< first due time -> drain() returned
  double cpu_s = 0.0;           ///< gateway_cpu_s() over the run
  std::vector<double> lag_ms;   ///< generator lateness per chunk
  std::vector<std::uint64_t> jobs;
  std::size_t chunks_per_pass = 0;
};

/// Wait for `due` without sleeping: on a shared host the wake-up of a
/// sleeping thread can lag by milliseconds, which would make the
/// generator late. Yielding keeps the thread runnable.
void spin_until(Clock::time_point due) {
  while (Clock::now() < due) std::this_thread::yield();
}

Clock::duration chunk_period() {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(kChunk) /
                                    kLiveRate));
}

LiveRun live_run(const Prepared& p, GatewayUnderTest& s, std::size_t passes,
                 SpanRecorder* rec = nullptr, std::uint32_t parent = 0,
                 std::uint32_t job = 0) {
  LiveRun r;
  r.chunks_per_pass = p.chunks();
  r.lag_ms.reserve(passes * r.chunks_per_pass);
  const Clock::duration period = chunk_period();
  const auto span = [&](const char* name) {
    return rec != nullptr ? std::optional<Scoped>(std::in_place, *rec, name,
                                                  parent, job)
                          : std::nullopt;
  };
  const double cpu0 = gateway_cpu_s();
  r.t0 = Clock::now() + std::chrono::milliseconds(5);
  std::uint64_t slot = 0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    gateway::StreamId sid;
    {
      auto sp = span("gateway.open_stream");
      sid = s.gw->open_stream();
    }
    r.jobs.push_back(s.next_job++);
    std::span<const dsp::Complex> rest(p.samples);
    while (!rest.empty()) {
      const Clock::time_point due = r.t0 + period * slot++;
      spin_until(due);
      r.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      const std::size_t take = std::min(kChunk, rest.size());
      {
        auto sp = span("gateway.push");
        unwrap(s.gw->push(sid, rest.first(take)), "push");
      }
      rest = rest.subspan(take);
    }
    auto sp = span("gateway.close_stream");
    unwrap(s.gw->close_stream(sid), "close_stream");
  }
  {
    auto sp = span("gateway.drain");
    drain(s);
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - r.t0).count();
  r.cpu_s = gateway_cpu_s() - cpu0;
  return r;
}

/// Frame latencies of a live run, in ms: from the due time of the chunk
/// holding the frame's last sample to the subscriber's receipt, and the
/// part of it the worker spent from taking that chunk to the decoded
/// frame (FrameRecord::latency_us).
struct LiveLatency {
  std::vector<double> total_ms;
  std::vector<double> work_ms;
};

LiveLatency live_latencies(const LiveRun& r, const Receipts& rx,
                           std::size_t frame_len) {
  LiveLatency out;
  const Clock::duration period = chunk_period();
  for (const Receipts::Rec& rec : rx.recs) {
    const auto it = std::find(r.jobs.begin(), r.jobs.end(), rec.job);
    if (it == r.jobs.end()) continue;
    const auto pass = static_cast<std::uint64_t>(it - r.jobs.begin());
    const std::uint64_t chunk = (rec.start + frame_len - 1) / kChunk;
    const Clock::time_point due =
        r.t0 + period * (pass * r.chunks_per_pass + chunk);
    out.total_ms.push_back(
        std::chrono::duration<double, std::milli>(rec.at - due).count());
    out.work_ms.push_back(1e-3 * static_cast<double>(rec.latency_us));
  }
  return out;
}

// ------------------------------------------------------------- checking

/// Output check of one job: delivered frames against the offline pass
/// (bit identity) and against ground truth.
struct Check {
  std::size_t attempted = 0;     ///< frames transmitted
  std::size_t delivered_ok = 0;  ///< delivered with ground-truth symbols
  std::size_t missing = 0;       ///< transmitted, not delivered
  bool identical = true;         ///< equals the offline pass
  std::size_t wrong = 0;         ///< delivered with a wrong symbol
  std::size_t false_frames = 0;  ///< delivered, matching no marker
  std::size_t symbol_errors = 0;
  std::vector<std::uint64_t> false_starts;

  /// The worst job's operations and failures (see add()).
  std::size_t run_attempted = 0;
  std::size_t run_failed = 0;

  /// Ground-truth mismatches are failed operations: every transmitted
  /// frame not delivered intact, plus every frame matching no marker.
  std::size_t failed() const { return missing + false_frames; }

  /// Sums the jobs of a run. Every job decodes the same samples, and bit
  /// identity makes each deliver the same frames, so the run's operations
  /// are one job's frames (the transmitted ones plus any false frames),
  /// not a count that grows with the number of jobs the host finished in
  /// the time; the failures are those of the worst job.
  void add(const Check& c) {
    if (run_attempted == 0 || c.failed() > run_failed) {
      run_attempted = c.attempted + c.false_frames;
      run_failed = c.failed();
    }
    attempted += c.attempted;
    delivered_ok += c.delivered_ok;
    missing += c.missing;
    identical = identical && c.identical;
    wrong += c.wrong;
    false_frames += c.false_frames;
    symbol_errors += c.symbol_errors;
    false_starts.insert(false_starts.end(), c.false_starts.begin(),
                        c.false_starts.end());
  }
};

Check check_job(const std::vector<Frame>& delivered,
                const std::vector<Frame>& offline, const Prepared& p) {
  const MatchResult m = match_markers(delivered, p.markers, p.spsym / 2);
  Check c;
  c.attempted = p.markers.size();
  c.delivered_ok = m.exact;
  c.missing = p.markers.size() - m.exact;
  c.identical = delivered == offline;
  c.wrong = m.wrong_symbols;
  c.false_frames = m.false_detections;
  c.symbol_errors = m.symbol_errors;
  c.false_starts = m.false_starts;
  return c;
}

/// Print where every failed frame went: the gateway's own loss counters
/// first; the rest of the undelivered frames are decode misses (the
/// offline pass missed them too, or the identity check failed).
void print_attribution(const Check& c, const gateway::GatewayStats& before,
                       const gateway::GatewayStats& after) {
  const std::uint64_t truncated = after.truncated_frames - before.truncated_frames;
  const std::uint64_t dropped = after.ingest.frames_dropped_subscriber -
                                before.ingest.frames_dropped_subscriber;
  const std::uint64_t shed = after.ingest.spans_shed - before.ingest.spans_shed;
  const std::uint64_t lost = c.missing - c.wrong;
  const std::uint64_t named = truncated + dropped + shed;
  std::printf(
      "check: %zu/%zu frames delivered with ground-truth symbols; "
      "identical to offline pass: %s\n"
      "  not delivered %llu = truncated_frames %llu + "
      "frames_dropped_subscriber %llu + spans_shed %llu + decode misses "
      "%llu\n"
      "  delivered with wrong symbols %zu (%zu symbol errors); false frames "
      "%zu",
      c.delivered_ok, c.attempted, c.identical ? "yes" : "NO",
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(truncated),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(lost > named ? lost - named : 0),
      c.wrong, c.symbol_errors, c.false_frames);
  for (std::size_t i = 0; i < c.false_starts.size() && i < 8; ++i) {
    std::printf("%s%llu", i == 0 ? " at sample " : ", ",
                static_cast<unsigned long long>(c.false_starts[i]));
  }
  std::printf("\n");
}

std::vector<Frame> offline_pass(const Prepared& p,
                                stream::StreamingDemodulator& d) {
  d.reset();
  d.clear_packets();
  std::span<const dsp::Complex> rest(p.samples);
  while (!rest.empty()) {
    const std::size_t take = std::min(kChunk, rest.size());
    d.push(rest.first(take));
    rest = rest.subspan(take);
  }
  d.finish();
  return frames_of(d);
}

int emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
         const std::vector<Metric>& metrics) {
  const std::string line = result_json(correct, attempted, failed, metrics);
  if (line.empty()) usage_error("a metric broke the name/unit/value rules");
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------- end-to-end (trace 0)

int run_end_to_end(const Options& o, const Prepared& p) {
  GatewayUnderTest s;
  const double setup_s = setup(p, s);
  stream::StreamingDemodulator offline(worker_config(p.w));
  const std::vector<Frame> reference = offline_pass(p, offline);
  const std::size_t frame_len = offline.frame_samples();

  // Untimed warm pass: page cache, ring and workspace sizes.
  if (p.w.replay) {
    enqueue(s, p.trace_path);
  } else {
    push_all(s, p.samples);
  }
  drain(s);
  s.rx.clear();

  const gateway::GatewayStats before = s.gw->stats();
  Check total;
  std::vector<double> rtf, cpu_per_air, latency_ms;
  double gen_lag_p99 = 0.0;
  bool valid = true;
  if (p.w.replay) {
    const Clock::time_point t0 = Clock::now();
    while (rtf.size() < kMinPasses || since(t0) < o.seconds ||
           latency_ms.size() < kMinLatencySamples) {
      const PassTiming t = replay_pass(p, s);
      rtf.push_back(p.air_s / t.wall_s);
      cpu_per_air.push_back(t.cpu_s / p.air_s);
      total.add(check_job(s.rx.frames_of_job(t.job), reference, p));
      for (const Receipts::Rec& r : s.rx.recs) {
        latency_ms.push_back(1e-3 * static_cast<double>(r.latency_us));
      }
      s.rx.clear();
    }
  } else {
    const double pass_s = std::chrono::duration<double>(chunk_period()).count() *
                          static_cast<double>(p.chunks());
    const std::size_t passes = std::max(
        static_cast<std::size_t>(std::ceil(o.seconds / pass_s - 1e-9)),
        (kMinLatencySamples + p.markers.size() - 1) / p.markers.size());
    const LiveRun r = live_run(p, s, passes);
    const double air = p.air_s * static_cast<double>(passes);
    rtf.push_back(air / r.wall_s);
    cpu_per_air.push_back(r.cpu_s / air);
    for (const std::uint64_t job : r.jobs) {
      total.add(check_job(s.rx.frames_of_job(job), reference, p));
    }
    const LiveLatency lat = live_latencies(r, s.rx, frame_len);
    latency_ms = lat.total_ms;
    std::vector<double> wait;
    for (std::size_t i = 0; i < lat.total_ms.size(); ++i) {
      wait.push_back(lat.total_ms[i] - lat.work_ms[i]);
    }
    std::printf("live_push latency split: worker chunk-to-decode p50 %.3f "
                "p90 %.3f ms; queueing, wake-ups and delivery p50 %.3f p90 "
                "%.3f ms\n",
                percentile(lat.work_ms, 0.5), percentile(lat.work_ms, 0.9),
                percentile(wait, 0.5), percentile(wait, 0.9));
    gen_lag_p99 = percentile(r.lag_ms, 0.99);
    std::printf("live_push: %zu chunks at %.0f samples/s, generator lag p50 "
                "%.3f p99 %.3f ms (limit %.3f), gateway threads busy share "
                "%.3f\n",
                r.lag_ms.size(), kLiveRate, percentile(r.lag_ms, 0.5),
                gen_lag_p99, kMaxGenLagMs, r.cpu_s / r.wall_s);
    if (gen_lag_p99 > kMaxGenLagMs) {
      std::printf("INVALID: the generator fell behind its schedule\n");
      valid = false;
    }
  }
  print_attribution(total, before, s.gw->stats());

  const std::size_t windows = window_count(latency_ms.size(), kMinLatencySamples);
  const std::size_t per_window = latency_ms.size() / windows;
  if (!percentile_supported(per_window, 0.9)) {
    std::printf("INVALID: %zu latency samples per window leave fewer than %zu "
                "beyond p90\n",
                per_window, kMinBeyond);
    valid = false;
  }
  const double lat_p50 = windowed_percentile(latency_ms, 0.5, kMinLatencySamples);
  const double lat_p90 = windowed_percentile(latency_ms, 0.9, kMinLatencySamples);
  std::printf("frame latency: %zu samples in %zu windows of at least %zu (%zu "
              "beyond p90); median over windows p50 %.3f p90 %.3f ms; pooled "
              "p10 %.3f p50 %.3f p90 %.3f p99 %.3f max %.3f ms\n",
              latency_ms.size(), windows, per_window,
              samples_beyond(per_window, 0.9), lat_p50, lat_p90,
              percentile(latency_ms, 0.1), percentile(latency_ms, 0.5),
              percentile(latency_ms, 0.9), percentile(latency_ms, 0.99),
              percentile(latency_ms, 1.0));
  std::printf("frame latency p90 per window:");
  for (const double v : window_percentiles(latency_ms, 0.9, kMinLatencySamples)) {
    std::printf(" %.3f", v);
  }
  std::printf(" ms\n");
  std::printf("passes: %zu, realtime_factor per pass:", p.w.replay ? rtf.size() : 1);
  for (const double v : rtf) std::printf(" %.4f", v);
  std::printf("\n");

  const std::vector<Metric> metrics = {
      {"realtime_factor", median(rtf), "x"},
      {"cpu_per_air", median(cpu_per_air), "s/s"},
      {"frame_latency_p50_ms", lat_p50, "ms"},
      {"frame_latency_p90_ms", lat_p90, "ms"},
      {"frame_delivery_ratio",
       static_cast<double>(total.delivered_ok) /
           static_cast<double>(total.attempted),
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return emit(valid && total.identical, total.run_attempted, total.run_failed,
              metrics);
}

// ------------------------------------------------------ per-layer (trace 1)

/// The layer entry points driven one call at a time, each call inside
/// its own span: the vanilla scan chain's reference envelope, the
/// packet scanner, the batch decoder and the SIC resolver. Built once
/// and reused across jobs, so their construction is set-up, not budget.
struct Probe {
  explicit Probe(const Workload& w)
      : scan_chain(scan_cfg()),
        detector(scan_chain),
        scanner(detector, worker_config(w).min_score),
        batch(phy_config()) {
    if (w.sic_depth > 0) {
      resolver.emplace(phy_config(), worker_config(w).sic, kPayloadSymbols);
    }
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  static core::SaiyanConfig scan_cfg() {
    core::SaiyanConfig c = phy_config();
    c.mode = core::Mode::kVanilla;  // the streaming scan front end
    return c;
  }

  core::ReceiverChain scan_chain;
  core::PreambleDetector detector;
  core::DemodWorkspace ws;
  stream::PacketScanner scanner;
  core::BatchDemodulator batch;
  std::optional<sic::CollisionResolver> resolver;
};

struct ProbeCounts {
  std::size_t spans = 0;
  std::size_t spans_matched = 0;
  std::size_t frames = 0;
  std::size_t decode_disagree = 0;  ///< probe decode != streaming decode
  std::size_t cancels = 0;
  std::size_t rescans = 0;
  std::size_t rescan_hits = 0;
};

/// Run every layer once over the workload's samples, in the order the
/// streaming demodulator runs them: envelope + scan per block, then
/// decode (and, with SIC, cancel + rescan) per frame in decode order.
ProbeCounts probe_layers(const Prepared& p, Probe& pr,
                         const stream::StreamingDemodulator& composite,
                         SpanRecorder& rec, std::uint32_t parent,
                         std::uint32_t job) {
  ProbeCounts n;
  const std::size_t block = composite.block_samples();
  const std::size_t frame_len = composite.frame_samples();
  const std::size_t pre_len = composite.preamble_samples();
  pr.scanner.reset();
  std::vector<stream::PacketSpan> spans;
  spans.reserve(256);
  std::span<const dsp::Complex> all(p.samples);
  for (std::size_t at = 0; at < all.size(); at += block) {
    const auto blk = all.subspan(at, std::min(block, all.size() - at));
    {
      Scoped sp(rec, "frontend.envelope", parent, job);
      pr.scan_chain.reference_envelope_into(blk, pr.ws);
    }
    Scoped sp(rec, "scanner.push_block", parent, job);
    pr.scanner.push_block(pr.ws.env, spans);
  }
  pr.scanner.finish(spans);
  std::vector<Frame> found;
  for (const stream::PacketSpan& s : spans) found.push_back(Frame{s.packet_start, {}});
  std::vector<Frame> truth;
  for (const Frame& m : p.markers) truth.push_back(Frame{m.start, {}});
  n.spans = spans.size();
  n.spans_matched = match_markers(found, truth, p.spsym / 2).exact;

  const bool sic = pr.resolver.has_value();
  dsp::Signal residual;
  if (sic) residual = p.samples;
  const dsp::Signal& src = sic ? residual : p.samples;
  const std::uint64_t seed = worker_config(p.w).seed;
  const std::size_t depth = p.w.sic_depth;
  std::uint64_t index = 0;
  for (const stream::DecodedPacket& pk : composite.packets()) {
    const std::size_t start = static_cast<std::size_t>(pk.packet_start);
    const auto frame = std::span<const dsp::Complex>(src).subspan(start, frame_len);
    std::vector<std::uint32_t> syms;
    {
      Scoped sp(rec, "core.decode_aligned", parent, job);
      const auto out = pr.batch.decode_aligned(
          frame, pre_len, kPayloadSymbols, dsp::derive_stream_seed(seed, index++));
      syms.assign(out.begin(), out.end());
    }
    ++n.frames;
    const auto want = composite.symbols(pk);
    n.decode_disagree += !std::equal(syms.begin(), syms.end(), want.begin(), want.end());
    if (!sic || pk.sic_depth >= depth) continue;
    const std::size_t radius = pr.resolver->config().align_radius;
    const std::size_t lo = start >= radius ? start - radius : 0;
    const std::size_t hi = std::min(start + frame_len + radius, residual.size());
    {
      Scoped sp(rec, "sic.cancel", parent, job);
      pr.resolver->cancel(std::span<dsp::Complex>(residual).subspan(lo, hi - lo),
                          start - lo, syms);
    }
    ++n.cancels;
    const std::size_t end = std::min(start + frame_len + pre_len, residual.size());
    std::optional<sic::RescanHit> hit;
    {
      Scoped sp(rec, "sic.rescan", parent, job);
      hit = pr.resolver->rescan(
          std::span<const dsp::Complex>(residual).subspan(start, end - start));
    }
    ++n.rescans;
    n.rescan_hits += hit.has_value();
  }
  return n;
}

std::uint64_t stage_sum_us(const gateway::GatewayStats& st, const char* name) {
  for (const gateway::StageLatencySnapshot& s : st.stages) {
    if (std::string_view(s.stage) == name) return s.sum_us;
  }
  return 0;
}

/// Per-job layer figures; the run reports the median over jobs.
struct LayerSample {
  double wall = 0.0;        ///< traced gateway pass
  double wall_untraced = 0.0;
  double read = 0.0, envelope = 0.0, correlate = 0.0, decode = 0.0;
  double cancel = 0.0, rescan = 0.0, stream = 0.0, push = 0.0;
  double worker_cpu = 0.0;
  std::size_t pushes = 0;
  ProbeCounts counts;
  std::size_t chunks_corrupt = 0;
  std::size_t composite_frames = 0;
  std::size_t symbol_errors = 0;
  double gen_lag_p99_ms = 0.0;
  std::array<double, 5> stage_s{};  // program: scan decode cancel rescan deliver
};

constexpr std::array<const char*, 5> kStages = {"scan", "decode", "sic_cancel",
                                                "sic_rescan", "deliver"};

void print_budget(const Prepared& p, const LayerSample& l, std::size_t jobs) {
  const double other = l.stream - (l.envelope + l.correlate + l.decode +
                                   l.cancel + l.rescan);
  struct Row {
    const char* name;
    double s;
    bool work = true;  ///< time spent working (has a x-real-time rate)
  };
  std::vector<Row> rows;
  if (p.w.replay) {
    rows = {{"trace (read + CRC)", l.read},
            {"frontend (envelope)", l.envelope},
            {"scanner (correlate)", l.correlate},
            {"core (decode)", l.decode},
            {"sic (cancel + rescan)", l.cancel + l.rescan},
            {"gateway (facade)", l.wall - l.read - l.stream},
            {"other (stream rest)", other}};
  } else {
    rows = {{"frontend (envelope)", l.envelope},
            {"scanner (correlate)", l.correlate},
            {"core (decode)", l.decode},
            {"sic (cancel + rescan)", l.cancel + l.rescan},
            {"gateway (facade)", l.worker_cpu - l.stream},
            {"idle (worker waits)", l.wall - l.worker_cpu, false},
            {"other (stream rest)", other}};
  }
  const double air = p.air_s * static_cast<double>(jobs);
  std::printf("\nbudget, %s seed %llu, %zu jobs: %.3f s traced wall for %.3f s "
              "of air (%.3fx real time), trace overhead %+.2f %%\n",
              p.w.name, static_cast<unsigned long long>(p.seed), jobs, l.wall,
              air, air / l.wall, 100.0 * (l.wall / l.wall_untraced - 1.0));
  std::printf("%-24s %10s %8s %10s\n", "layer", "self s", "share", "x real");
  double sum = 0.0;
  for (const Row& r : rows) {
    sum += r.s;
    std::printf("%-24s %10.4f %7.1f%%", r.name, r.s, 100.0 * r.s / l.wall);
    if (r.work && r.s > 0.0) {
      std::printf(" %10.2f\n", air / r.s);
    } else {
      std::printf(" %10s\n", "-");
    }
  }
  std::printf("%-24s %10.4f %7.1f%%\n", "sum", sum, 100.0 * sum / l.wall);
  std::printf("probe decodes equal to the streaming decode: %zu/%zu frames\n",
              l.counts.frames - l.counts.decode_disagree, l.counts.frames);
  std::printf("program stage sums (GatewayStats.stages) beside the outside "
              "timing:\n");
  const double outside[] = {l.envelope + l.correlate, l.decode, l.cancel,
                            l.rescan, 0.0};
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    std::printf("  %-11s program %9.4f s   outside %9.4f s\n", kStages[i],
                l.stage_s[i], outside[i]);
  }
}

int run_traced(const Options& o, const Prepared& p) {
  GatewayUnderTest s;
  setup(p, s);
  stream::StreamingDemodulator composite(worker_config(p.w));
  const std::vector<Frame> reference = offline_pass(p, composite);
  Probe probe(p.w);
  SpanRecorder rec;
  std::vector<LayerSample> samples;
  Check total;
  bool valid = true;
  dsp::Signal buf;
  std::vector<dsp::Signal> chunks;

  const Clock::time_point t_run = Clock::now();
  for (std::uint32_t job = 1; samples.empty() || since(t_run) < o.seconds; ++job) {
    LayerSample l;
    // Untraced pass first, for bench.trace_overhead.
    if (p.w.replay) {
      l.wall_untraced = replay_pass(p, s).wall_s;
    } else {
      const LiveRun r = live_run(p, s, 1);
      l.wall_untraced = r.wall_s;
      l.gen_lag_p99_ms = percentile(r.lag_ms, 0.99);
      valid = valid && l.gen_lag_p99_ms <= kMaxGenLagMs;
    }
    s.rx.clear();
    const gateway::GatewayStats before = s.gw->stats();
    const Scoped root(rec, "job", 0, job);
    std::uint64_t gw_job = 0;
    if (p.w.replay) {
      const double cpu0 = gateway_cpu_s();
      const Scoped g(rec, "gateway.replay", root.id(), job);
      {
        const Scoped sp(rec, "gateway.enqueue_trace", g.id(), job);
        gw_job = enqueue(s, p.trace_path);
      }
      const Scoped sp(rec, "gateway.drain", g.id(), job);
      drain(s);
      l.worker_cpu = gateway_cpu_s() - cpu0;
    } else {
      const Scoped g(rec, "gateway.live", root.id(), job);
      const LiveRun r = live_run(p, s, 1, &rec, g.id(), job);
      l.worker_cpu = r.cpu_s;
      gw_job = r.jobs.front();
    }
    const gateway::GatewayStats after = s.gw->stats();
    for (std::size_t i = 0; i < kStages.size(); ++i) {
      l.stage_s[i] = 1e-6 * static_cast<double>(stage_sum_us(after, kStages[i]) -
                                                stage_sum_us(before, kStages[i]));
    }
    const Check c = check_job(s.rx.frames_of_job(gw_job), reference, p);
    total.add(c);
    if (c.failed() != 0 || !c.identical) print_attribution(c, before, after);

    if (p.w.replay) {
      const Scoped r(rec, "trace.read", root.id(), job);
      std::optional<stream::TraceReader> reader;
      {
        const Scoped sp(rec, "trace.open", r.id(), job);
        // Same chunk mode as the gateway's own reader.
        reader.emplace(unwrap(stream::TraceReader::open(
                                  p.trace_path, gateway_config(p.w).resync),
                              "open"));
      }
      chunks.clear();
      for (;;) {
        stream::ChunkStatus st;
        {
          const Scoped sp(rec, "trace.next_chunk", r.id(), job);
          st = reader->next_chunk(buf);
        }
        if (st != stream::ChunkStatus::kOk) break;
        chunks.push_back(buf);
      }
      l.chunks_corrupt = reader->stats().chunks_corrupt;
    } else {
      chunks.clear();
      std::span<const dsp::Complex> rest(p.samples);
      while (!rest.empty()) {
        const std::size_t take = std::min(kChunk, rest.size());
        chunks.emplace_back(rest.begin(), rest.begin() + take);
        rest = rest.subspan(take);
      }
    }
    {
      // StreamingDemodulator alone on this thread: the single-threaded
      // baseline of the same job.
      const Scoped st(rec, "stream", root.id(), job);
      composite.reset();
      composite.clear_packets();
      for (const dsp::Signal& ch : chunks) {
        const Scoped sp(rec, "stream.push", st.id(), job);
        composite.push(ch);
      }
      const Scoped sp(rec, "stream.finish", st.id(), job);
      composite.finish();
    }
    const std::vector<Frame> composite_frames = frames_of(composite);
    if (composite_frames != reference) {
      std::printf("INVALID: streaming pass over the trace read back differs "
                  "from the offline pass\n");
      valid = false;
    }
    l.composite_frames = composite_frames.size();
    l.symbol_errors = match_markers(composite_frames, p.markers, p.spsym / 2)
                          .symbol_errors;
    {
      const Scoped pr(rec, "probe", root.id(), job);
      l.counts = probe_layers(p, probe, composite, rec, pr.id(), job);
    }
    s.rx.clear();
    samples.push_back(l);
  }

  // Sum each layer's self time per job from the spans.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    LayerSample& l = samples[i];
    const auto job = static_cast<std::uint32_t>(i + 1);
    const auto sum = [&](std::initializer_list<const char*> names) {
      double t = 0.0;
      for (const char* n : names) t += self_seconds(spans, self, n, job);
      return t;
    };
    l.wall = sum({p.w.replay ? "gateway.replay" : "gateway.live",
                  "gateway.enqueue_trace", "gateway.drain", "gateway.open_stream",
                  "gateway.push", "gateway.close_stream"});
    l.read = sum({"trace.open", "trace.next_chunk"});
    l.envelope = sum({"frontend.envelope"});
    l.correlate = sum({"scanner.push_block"});
    l.decode = sum({"core.decode_aligned"});
    l.cancel = sum({"sic.cancel"});
    l.rescan = sum({"sic.rescan"});
    l.stream = sum({"stream.push", "stream.finish"});
    l.push = sum({"gateway.push"});
    l.pushes = span_count(spans, "gateway.push", job);
  }
  const std::string trace_out = o.out_dir + "/" + p.w.name + "-seed" +
                                std::to_string(o.seed) + ".trace.json";
  if (!write_chrome_trace(spans, trace_out)) usage_error("cannot write " + trace_out);
  std::printf("spans: %zu over %zu jobs, written to %s\n", spans.size(),
              samples.size(), trace_out.c_str());

  // The printed budget sums every job: its rows come from passes run
  // seconds apart, and summing evens out the machine's drift between them.
  LayerSample all;
  for (const LayerSample& l : samples) {
    for (const auto field :
         {&LayerSample::wall, &LayerSample::wall_untraced, &LayerSample::read,
          &LayerSample::envelope, &LayerSample::correlate, &LayerSample::decode,
          &LayerSample::cancel, &LayerSample::rescan, &LayerSample::stream,
          &LayerSample::worker_cpu}) {
      all.*field += l.*field;
    }
    for (std::size_t i = 0; i < kStages.size(); ++i) all.stage_s[i] += l.stage_s[i];
    all.counts.frames += l.counts.frames;
    all.counts.decode_disagree += l.counts.decode_disagree;
  }
  print_budget(p, all, samples.size());

  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const LayerSample& l : samples) v.push_back(f(l));
    return median(v);
  };
  const auto per = [](double t, double n, double scale) {
    return n > 0.0 ? t * scale / n : 0.0;
  };
  const double n_samples = static_cast<double>(p.samples.size());
  const bool replay = p.w.replay;
  const gateway::GatewayStats st = s.gw->stats();
  const std::vector<Metric> metrics = {
      {"trace.read_ns_per_sample",
       med([&](const LayerSample& l) { return replay ? per(l.read, n_samples, 1e9) : 0.0; }),
       "ns"},
      {"trace.read_mb_per_s",
       med([&](const LayerSample& l) {
         return replay ? static_cast<double>(p.trace_bytes) / l.read / 1e6 : 0.0;
       }),
       "MB/s"},
      {"trace.chunks_corrupt",
       med([](const LayerSample& l) { return static_cast<double>(l.chunks_corrupt); }),
       "count"},
      {"frontend.envelope_ns_per_sample",
       med([&](const LayerSample& l) { return per(l.envelope, n_samples, 1e9); }), "ns"},
      {"scanner.correlate_ns_per_sample",
       med([&](const LayerSample& l) { return per(l.correlate, n_samples, 1e9); }), "ns"},
      {"scanner.spans",
       med([](const LayerSample& l) { return static_cast<double>(l.counts.spans); }),
       "count"},
      {"scanner.span_precision",
       med([](const LayerSample& l) {
         return l.counts.spans == 0 ? 0.0
                                    : static_cast<double>(l.counts.spans_matched) /
                                          static_cast<double>(l.counts.spans);
       }),
       "ratio"},
      {"core.decode_us_per_frame",
       med([&](const LayerSample& l) {
         return per(l.decode, static_cast<double>(l.counts.frames), 1e6);
       }),
       "us"},
      {"core.frames_decoded",
       med([](const LayerSample& l) { return static_cast<double>(l.composite_frames); }),
       "count"},
      {"core.symbol_errors",
       med([](const LayerSample& l) { return static_cast<double>(l.symbol_errors); }),
       "count"},
      {"sic.cancel_us_per_frame",
       med([&](const LayerSample& l) {
         return per(l.cancel, static_cast<double>(l.counts.cancels), 1e6);
       }),
       "us"},
      {"sic.rescan_us_per_call",
       med([&](const LayerSample& l) {
         return per(l.rescan, static_cast<double>(l.counts.rescans), 1e6);
       }),
       "us"},
      {"sic.rescans",
       med([](const LayerSample& l) { return static_cast<double>(l.counts.rescans); }),
       "count"},
      {"sic.rescan_hit_ratio",
       med([](const LayerSample& l) {
         return l.counts.rescans == 0 ? 0.0
                                      : static_cast<double>(l.counts.rescan_hits) /
                                            static_cast<double>(l.counts.rescans);
       }),
       "ratio"},
      {"stream.push_ns_per_sample",
       med([&](const LayerSample& l) { return per(l.stream, n_samples, 1e9); }), "ns"},
      {"stream.other_share",
       med([](const LayerSample& l) {
         return (l.stream - l.envelope - l.correlate - l.decode - l.cancel -
                 l.rescan) / l.wall;
       }),
       "ratio"},
      {"gateway.facade_share",
       med([&](const LayerSample& l) {
         return (replay ? l.wall - l.read - l.stream : l.worker_cpu - l.stream) /
                l.wall;
       }),
       "ratio"},
      {"gateway.push_us_per_chunk",
       med([&](const LayerSample& l) {
         return per(l.push, static_cast<double>(l.pushes), 1e6);
       }),
       "us"},
      {"gateway.frames_dropped",
       static_cast<double>(st.ingest.frames_dropped_subscriber), "count"},
      {"gateway.worker_busy_share",
       med([](const LayerSample& l) { return l.worker_cpu / l.wall; }), "ratio"},
      {"bench.gen_lag_p99_ms",
       med([](const LayerSample& l) { return l.gen_lag_p99_ms; }), "ms"},
      {"bench.trace_overhead",
       med([](const LayerSample& l) { return l.wall / l.wall_untraced - 1.0; }),
       "ratio"},
      {"budget.trace_share",
       med([](const LayerSample& l) { return l.read / l.wall; }), "ratio"},
      {"budget.frontend_share",
       med([](const LayerSample& l) { return l.envelope / l.wall; }), "ratio"},
      {"budget.scanner_share",
       med([](const LayerSample& l) { return l.correlate / l.wall; }), "ratio"},
      {"budget.core_share",
       med([](const LayerSample& l) { return l.decode / l.wall; }), "ratio"},
      {"budget.sic_share",
       med([](const LayerSample& l) { return (l.cancel + l.rescan) / l.wall; }),
       "ratio"},
      {"budget.idle_share",
       med([&](const LayerSample& l) {
         return replay ? 0.0 : (l.wall - l.worker_cpu) / l.wall;
       }),
       "ratio"},
      {"stage.scan_share",
       med([](const LayerSample& l) { return l.stage_s[0] / l.wall; }), "ratio"},
      {"stage.decode_share",
       med([](const LayerSample& l) { return l.stage_s[1] / l.wall; }), "ratio"},
      {"stage.sic_share",
       med([](const LayerSample& l) { return (l.stage_s[2] + l.stage_s[3]) / l.wall; }),
       "ratio"},
      {"stage.deliver_share",
       med([](const LayerSample& l) { return l.stage_s[4] / l.wall; }), "ratio"},
  };
  std::printf("check over %zu jobs: %zu/%zu frames delivered with "
              "ground-truth symbols, %zu false frames; identical to offline "
              "pass: %s\n",
              samples.size(), total.delivered_ok, total.attempted,
              total.false_frames, total.identical ? "yes" : "NO");
  return emit(valid && total.identical, total.run_attempted, total.run_failed,
              metrics);
}

int run_setup_only(const Prepared& p) {
  GatewayUnderTest s;
  const double setup_s = setup(p, s);
  std::printf("{\"setup_s\": %.10g}\n", setup_s);
  return 0;
}

/// The traces are this run's own inputs; a checkout that runs every seed
/// would otherwise keep gigabytes of them.
void remove_traces(const Prepared& p) {
  std::error_code ec;
  for (const std::string& f : {p.trace_path, p.warm_path}) {
    if (!f.empty()) std::filesystem::remove(f, ec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const Prepared p = prepare(o);
    const int rc = o.setup_only ? run_setup_only(p)
                   : o.trace    ? run_traced(o, p)
                                : run_end_to_end(o, p);
    remove_traces(p);
    return rc;
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
}
