#include "gateway/gateway.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "gateway/degradation.hpp"
#include "obs/seqlock.hpp"
#include "obs/stage_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"

namespace saiyan::gateway {

namespace {

using Clock = std::chrono::steady_clock;
using obs::LatencyHistogram;

std::uint64_t us_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// What a worker's warm demodulator slot was built for. Jobs with an
/// equal key reuse the slot (reset() keeps the warm buffers); anything
/// else rebuilds it. `generation` ties the key to a specific reload
/// epoch, so a config swap can never silently serve with stale knobs.
struct DemodKey {
  std::uint64_t generation = 0;
  bool from_trace = false;  ///< SaiyanConfig derived from a trace header
  core::Mode mode = core::Mode::kSuper;
  std::size_t payload_symbols = 0;
  double sample_rate_hz = 0.0;
  int spreading_factor = 0;
  double bandwidth_hz = 0.0;
  int bits_per_symbol = 0;
  int preamble_symbols = 0;
  double sync_symbols = 0.0;
  lora::FecRate fec = lora::FecRate::k4_5;

  static DemodKey make(std::uint64_t gen, bool from_trace,
                       const lora::PhyParams& phy, core::Mode mode,
                       std::size_t payload_symbols) {
    DemodKey k;
    k.generation = gen;
    k.from_trace = from_trace;
    k.mode = mode;
    k.payload_symbols = payload_symbols;
    k.sample_rate_hz = phy.sample_rate_hz;
    k.spreading_factor = phy.spreading_factor;
    k.bandwidth_hz = phy.bandwidth_hz;
    k.bits_per_symbol = phy.bits_per_symbol;
    k.preamble_symbols = phy.preamble_symbols;
    k.sync_symbols = phy.sync_symbols;
    k.fec = phy.fec;
    return k;
  }

  bool operator==(const DemodKey&) const = default;
};

struct LiveStream {
  std::deque<dsp::Signal> chunks;  // guarded by Impl::mu_
  bool closed = false;             // guarded by Impl::mu_
};

/// One unit of work: a trace replay (`stream` null) or a live stream.
struct Job {
  std::uint64_t id = 0;
  std::string path;                    ///< trace job: the file to replay
  std::shared_ptr<LiveStream> stream;  ///< stream job: the sample feed
};

/// What a worker got when it asked a job for its next chunk.
enum class Pull { kChunk, kEnd, kCancelled, kShutdown };

/// Hot per-worker counters: relaxed atomics on their own cache line,
/// incremented by exactly one worker, read by any snapshotter.
struct alignas(64) WorkerCounters {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> symbols{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> truncated{0};
};

struct Subscriber {
  SubscriberId id = 0;
  FrameHandler fn;
  obs::StageMetrics* metrics = nullptr;  ///< owner: Gateway::Impl
  std::size_t cap = 256;
  std::mutex m;
  std::condition_variable cv;
  std::deque<FrameRecord> q;  // guarded by m
  bool stop = false;          // guarded by m
  bool in_flight = false;     // handler running (guarded by m)
  std::thread thr;
};

}  // namespace

struct Gateway::Impl {
  explicit Impl(const GatewayConfig& c)
      : base_cfg(c),
        cfg(std::make_shared<const GatewayConfig>(c)),
        link_telemetry_(c.link.capacity) {}

  // ---- configuration -------------------------------------------------
  const GatewayConfig base_cfg;  ///< fixed fields (workers, limits)
  std::shared_ptr<const GatewayConfig> cfg;  ///< current (guarded by mu_)
  /// Bumped per reload. Written under mu_; atomic so health() can
  /// report the generation without taking the job-queue lock.
  std::atomic<std::uint64_t> cfg_gen{0};
  std::atomic<std::uint64_t> config_reloads{0};

  // ---- scheduling ----------------------------------------------------
  struct Worker {
    std::uint32_t index = 0;
    std::deque<Job> jobs;  // guarded by Impl::mu_
    bool busy = false;     // guarded by Impl::mu_
    std::condition_variable cv;
    WorkerCounters counters;
    obs::Seqlock<stream::IngestStats> ingest_pub;
    stream::IngestStats ingest;  // worker-private accumulator
    std::unique_ptr<stream::StreamingDemodulator> demod;
    DemodKey demod_key;
    std::thread thr;

    // Watchdog-visible liveness state. The worker writes these with
    // relaxed stores on the chunk path; the watchdog thread polls them.
    // `cancel` is the cooperative token StreamingDemodulator polls per
    // block — the one channel that can unstick a wedged push().
    std::atomic<bool> cancel{false};
    std::atomic<std::uint8_t> cancel_kind{0};  ///< 1=heartbeat, 2=deadline
    std::atomic<std::uint64_t> heartbeat_ns{0};
    std::atomic<std::uint64_t> job_start_ns{0};  ///< 0 = idle
    std::atomic<std::uint64_t> current_job{0};
    std::atomic<bool> job_is_stream{false};
    std::atomic<std::uint64_t> cancels{0};  ///< watchdog fires on this worker
    std::atomic<std::uint64_t> rescan_backlog{0};
  };

  mutable std::mutex mu_;  // job queues, live streams, cfg pointer
  std::condition_variable idle_cv_;
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t next_job_ = 0;
  std::uint64_t rr_ = 0;
  std::unordered_map<StreamId, std::shared_ptr<LiveStream>> streams_;

  std::atomic<std::uint64_t> jobs_enqueued{0};
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> streams_open{0};
  std::atomic<std::uint64_t> markers_expected{0};

  // ---- self-healing --------------------------------------------------
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
  std::thread watchdog_thr_;
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  std::atomic<std::uint64_t> deadline_cancels_{0};
  std::atomic<std::uint8_t> degradation_level_{0};
  std::atomic<std::uint64_t> degradation_transitions_{0};
  std::atomic<std::uint64_t> window_p99_us_{0};
  /// drain()s in progress (guarded by mu_). reload() is *rejected*
  /// while nonzero — the drain/reload race gets a defined order.
  int draining_ = 0;

  // ---- job outcomes --------------------------------------------------
  static constexpr std::size_t kMaxOutcomes = 4096;
  mutable std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, JobStatus> outcomes_;  // jobs_mu_
  std::deque<std::uint64_t> outcome_order_;                // jobs_mu_

  void record_outcome(std::uint64_t id, JobStatus st) {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    if (outcomes_.emplace(id, std::move(st)).second) {
      outcome_order_.push_back(id);
      while (outcome_order_.size() > kMaxOutcomes) {
        outcomes_.erase(outcome_order_.front());
        outcome_order_.pop_front();
      }
    }
  }

  // ---- delivery ------------------------------------------------------
  mutable std::mutex subs_mu_;
  std::vector<std::shared_ptr<Subscriber>> subs_;
  std::uint64_t next_sub_ = 1;
  std::atomic<std::size_t> n_subs{0};

  LatencyHistogram latency_;
  /// Shared per-stage pipeline histograms (wait-free multi-writer):
  /// workers record scan/decode/SIC/gap timings via
  /// StreamConfig::stage_metrics, subscriber threads record delivery.
  obs::StageMetrics stage_metrics_;
  /// Link telescope: every worker's demodulator computes per-frame RF
  /// diagnostics into this shared registry (StreamConfig::link_telemetry)
  /// and emit_frames folds in the decoded identity. Fixed at create();
  /// snapshots never block the workers.
  obs::LinkTelemetry link_telemetry_;
  const Clock::time_point start_ = Clock::now();

  /// Assign the job its id, queue it on the next worker round-robin
  /// (a stream job also becomes pushable), and wake that worker.
  std::uint64_t submit(Job job) {
    std::uint64_t id;
    Worker* target;
    {
      std::lock_guard<std::mutex> lk(mu_);
      id = job.id = next_job_++;
      if (job.stream) streams_.emplace(id, job.stream);
      target = workers_[rr_++ % workers_.size()].get();
      target->jobs.push_back(std::move(job));
    }
    jobs_enqueued.fetch_add(1, std::memory_order_relaxed);
    target->cv.notify_all();
    return id;
  }

  // ---- worker body ---------------------------------------------------

  void worker_main(Worker& w) {
    char tname[24];
    std::snprintf(tname, sizeof(tname), "worker%u", w.index);
    obs::set_thread_name(tname);
    for (;;) {
      Job job;
      std::shared_ptr<const GatewayConfig> job_cfg;
      std::uint64_t gen;
      {
        std::unique_lock<std::mutex> lk(mu_);
        w.cv.wait(lk, [&] { return stop_ || !w.jobs.empty(); });
        if (stop_) return;  // outstanding jobs are abandoned (see dtor)
        job = std::move(w.jobs.front());
        w.jobs.pop_front();
        w.busy = true;
        job_cfg = cfg;  // pinned: in-flight jobs survive reload untouched
        gen = cfg_gen;
      }
      // Arm the liveness state before the job body runs: clear any
      // cancel left over from the previous job, then publish start /
      // heartbeat so the watchdog ages this job from zero.
      w.cancel.store(false, std::memory_order_relaxed);
      w.cancel_kind.store(0, std::memory_order_relaxed);
      w.current_job.store(job.id, std::memory_order_relaxed);
      w.job_is_stream.store(job.stream != nullptr, std::memory_order_relaxed);
      const std::uint64_t t_start = now_ns();
      w.heartbeat_ns.store(t_start, std::memory_order_relaxed);
      w.job_start_ns.store(t_start, std::memory_order_release);
      // Explicit B/E rather than a ScopedTimer: if the job wedges and a
      // trace is dumped mid-flight, the dangling 'B' shows the open job.
      const char* span = job.stream ? "stream_job" : "trace_job";
      obs::trace_begin(span);
      JobStatus st = run_job(w, job, *job_cfg, gen);
      obs::trace_end(span);
      w.job_start_ns.store(0, std::memory_order_release);
      w.counters.jobs.fetch_add(1, std::memory_order_relaxed);
      if (st.state == JobState::kDone) {
        jobs_done.fetch_add(1, std::memory_order_relaxed);
      } else {
        jobs_failed.fetch_add(1, std::memory_order_relaxed);
      }
      record_outcome(job.id, std::move(st));
      {
        std::lock_guard<std::mutex> lk(mu_);
        w.busy = false;
      }
      idle_cv_.notify_all();
    }
  }

  stream::StreamingDemodulator& ensure_demod(Worker& w, const DemodKey& key,
                                             stream::StreamConfig sc) {
    if (!w.demod || !(w.demod_key == key)) {
      w.demod = std::make_unique<stream::StreamingDemodulator>(sc);
      w.demod_key = key;
    } else {
      w.demod->reset();
    }
    w.demod->clear_packets();
    return *w.demod;
  }

  /// Abandon a cancelled job: fold in what was counted so far, count
  /// the cancel, and surface a typed outcome. The worker itself lives
  /// on; its demodulator is rebuilt/reset before the next job.
  JobStatus abandon_cancelled(Worker& w, const stream::TraceReader* reader,
                              stream::StreamingDemodulator& demod) {
    ++w.ingest.jobs_cancelled;
    if (reader != nullptr) w.ingest.merge(reader->stats());
    w.ingest.merge(demod.ingest());
    w.ingest_pub.store(w.ingest);
    JobStatus st;
    st.state = JobState::kCancelled;
    st.message = w.cancel_kind.load(std::memory_order_relaxed) == 2
                     ? "job cancelled: deadline exceeded"
                     : "job cancelled: watchdog heartbeat timeout";
    return st;
  }

  /// Per-chunk liveness bookkeeping: beat the heartbeat, publish the
  /// rescan backlog, and run the test-only chunk hook.
  void chunk_tick(Worker& w, stream::StreamingDemodulator& demod,
                  const GatewayConfig& gcfg, std::uint64_t job_id,
                  std::uint64_t chunk_index) {
    w.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    w.rescan_backlog.store(demod.rescan_backlog(), std::memory_order_relaxed);
    if (gcfg.chunk_hook) {
      GatewayConfig::ChunkHookInfo info;
      info.worker = w.index;
      info.job = job_id;
      info.chunk_index = chunk_index;
      info.cancel = &w.cancel;
      gcfg.chunk_hook(info);
    }
  }

  /// Pull a job's next chunk into `chunk`. A trace job reads its file
  /// and realigns the demodulator over any corrupt region the read
  /// skipped; a stream job waits for its pusher.
  Pull pull(Worker& w, const Job& job, stream::TraceReader* reader,
            stream::StreamingDemodulator& demod, dsp::Signal& chunk) {
    if (reader != nullptr) {
      const stream::ChunkStatus st = reader->next_chunk(chunk);
      demod.note_gap(reader->last_gap_samples());
      return st == stream::ChunkStatus::kOk ||
                     st == stream::ChunkStatus::kResync
                 ? Pull::kChunk
                 : Pull::kEnd;
    }
    chunk = dsp::Signal();  // free the previous chunk outside the lock
    LiveStream& ls = *job.stream;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (stop_) return Pull::kShutdown;
      if (w.cancel.load(std::memory_order_relaxed)) return Pull::kCancelled;
      if (!ls.chunks.empty()) {
        chunk = std::move(ls.chunks.front());
        ls.chunks.pop_front();
        return Pull::kChunk;
      }
      if (ls.closed) return Pull::kEnd;
      // Bounded waits so a stream merely idling (no chunks offered)
      // keeps its heartbeat fresh — the watchdog must distinguish
      // "waiting for input" from "wedged in a decode".
      w.cv.wait_for(lk, std::chrono::milliseconds(50));
      w.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    }
  }

  /// Forget a stream job that ended. A drained stream is already
  /// closed; a cancelled one is closed here, so pushers get a typed
  /// error instead of feeding a job nobody will ever run again.
  void retire_stream(const Job& job) {
    bool was_open;
    {
      std::lock_guard<std::mutex> lk(mu_);
      was_open = !job.stream->closed;
      job.stream->closed = true;
      streams_.erase(job.id);
    }
    if (was_open) streams_open.fetch_sub(1, std::memory_order_relaxed);
  }

  /// The one job loop. Only the setup differs by source: a trace job
  /// opens its reader and takes the receiver from the trace header; a
  /// stream job runs the configured receiver.
  JobStatus run_job(Worker& w, const Job& job, const GatewayConfig& gcfg,
                    std::uint64_t gen) {
    stream::StreamConfig sc = gcfg.worker_stream_config();
    sc.cancel = &w.cancel;  // watchdog's lever into a wedged push()
    sc.stage_metrics = &stage_metrics_;
    sc.link_telemetry = gcfg.link.enabled ? &link_telemetry_ : nullptr;
    std::optional<stream::TraceReader> opened_reader;
    if (!job.stream) {
      auto opened = stream::TraceReader::open(job.path, gcfg.resync);
      if (!opened.ok()) {
        // Validated at enqueue time; the file changed underneath us.
        const stream::IngestError kind =
            opened.error().ingest == stream::IngestError::kNone
                ? stream::IngestError::kBadHeader
                : opened.error().ingest;
        w.ingest.count(kind);
        w.ingest_pub.store(w.ingest);
        JobStatus st;
        st.state = JobState::kFailed;
        st.message = opened.error().message;
        st.ingest = kind;
        return st;
      }
      opened_reader.emplace(std::move(opened).value());
      // The trace knows what receiver it was recorded for; the
      // gateway's stream knobs (thresholds, seeds, SIC policy) come
      // from config.
      const stream::TraceMeta& meta = opened_reader->meta();
      sc.saiyan = core::SaiyanConfig::make(meta.phy, meta.mode);
      sc.payload_symbols = meta.payload_symbols;
    }
    stream::TraceReader* const reader =
        opened_reader ? &*opened_reader : nullptr;
    stream::StreamingDemodulator& demod = ensure_demod(
        w,
        DemodKey::make(gen, /*from_trace=*/reader != nullptr, sc.saiyan.phy,
                       sc.saiyan.mode, sc.payload_symbols),
        sc);

    const std::uint64_t truncated_before = demod.truncated_packets();
    dsp::Signal chunk;  // a trace job reads every chunk into this buffer
    for (std::uint64_t chunk_index = 0;; ++chunk_index) {
      const Pull got = pull(w, job, reader, demod, chunk);
      if (got == Pull::kShutdown) {
        // Abandoned at shutdown, like any outstanding job.
        JobStatus st;
        st.state = JobState::kDone;
        return st;
      }
      if (got == Pull::kEnd) break;
      if (got == Pull::kChunk) {
        demod.set_degradation(
            degradation_level_.load(std::memory_order_relaxed));
        const Clock::time_point t0 = Clock::now();
        demod.push(chunk);
        w.counters.chunks.fetch_add(1, std::memory_order_relaxed);
        w.counters.samples.fetch_add(chunk.size(), std::memory_order_relaxed);
        emit_frames(w, demod, gcfg, job.id, t0);
        publish_transient(w, reader, demod);
        chunk_tick(w, demod, gcfg, job.id, chunk_index);
      }
      if (got == Pull::kCancelled || demod.cancelled() ||
          w.cancel.load(std::memory_order_relaxed)) {
        if (job.stream) retire_stream(job);
        return abandon_cancelled(w, reader, demod);
      }
      if (gcfg.throttle_us != 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(gcfg.throttle_us));
      }
    }
    const Clock::time_point t_flush = Clock::now();
    demod.finish();
    emit_frames(w, demod, gcfg, job.id, t_flush);
    w.counters.truncated.fetch_add(demod.truncated_packets() -
                                       truncated_before,
                                   std::memory_order_relaxed);
    if (reader != nullptr) w.ingest.merge(reader->stats());
    w.ingest.merge(demod.ingest());
    w.ingest_pub.store(w.ingest);
    if (job.stream) retire_stream(job);
    JobStatus done;
    done.state = JobState::kDone;
    return done;
  }

  /// Live view during a job: persistent worker counters plus the
  /// in-progress reader/demodulator counters (not yet folded in).
  void publish_transient(Worker& w, const stream::TraceReader* reader,
                         const stream::StreamingDemodulator& demod) {
    stream::IngestStats view = w.ingest;
    if (reader != nullptr) view.merge(reader->stats());
    view.merge(demod.ingest());
    w.ingest_pub.store(view);
  }

  void emit_frames(Worker& w, stream::StreamingDemodulator& demod,
                   const GatewayConfig& gcfg, std::uint64_t job_id,
                   Clock::time_point t_chunk) {
    const std::span<const stream::DecodedPacket> pkts = demod.packets();
    if (pkts.empty()) return;
    const std::uint64_t lat = us_since(t_chunk);
    const std::uint32_t channel = demod.config().channel;
    const std::uint32_t alphabet =
        demod.config().saiyan.phy.symbol_alphabet();
    for (const stream::DecodedPacket& p : pkts) {
      latency_.record(lat);
      w.counters.frames.fetch_add(1, std::memory_order_relaxed);
      w.counters.symbols.fetch_add(p.n_symbols, std::memory_order_relaxed);
      FrameRecord fr;
      fr.job = job_id;
      fr.worker = w.index;
      fr.packet_start = p.packet_start;
      fr.payload_start = p.payload_start;
      fr.score = p.score;
      fr.collided = p.collided;
      fr.sic_assisted = p.sic_assisted;
      fr.latency_us = lat;
      const std::span<const std::uint32_t> syms = demod.symbols(p);
      fr.symbols.assign(syms.begin(), syms.end());
      fr.channel = channel;
      fr.sic_depth = p.sic_depth;
      if (gcfg.link.enabled) {
        // Link identity: the first payload symbol is the address/link
        // symbol by convention (sim captures encode it with
        // CaptureConfig::link_headers; unkeyed traffic just groups by
        // its first symbol, which is harmless).
        fr.tag_id = syms.empty() ? 0 : syms[0];
        fr.snr_db = p.snr_db;
        fr.cfo_hz = p.cfo_hz;
        obs::FrameDiag d;
        d.tag_id = fr.tag_id;
        d.channel = channel;
        d.snr_db = p.snr_db;
        d.cfo_hz = p.cfo_hz;
        d.timing_offset = p.timing_offset;
        d.corr_margin = p.corr_margin;
        d.noise_floor_dbm = p.noise_floor_dbm;
        d.sic_depth = p.sic_depth;
        d.sic_assisted = p.sic_assisted;
        d.collided = p.collided;
        d.latency_us = lat;
        d.packet_start = p.packet_start;
        d.seen_us = us_since(start_);
        if (gcfg.link.sequence_symbol && syms.size() > 1) {
          d.seq = syms[1];
          d.seq_modulus = alphabet;
          d.has_seq = true;
        }
        link_telemetry_.record_frame(d);
        // Optional timeline marker so a Perfetto view can align SNR
        // dips with stage latency spikes.
        if (gcfg.link.trace_frames) obs::trace_instant("frame_diag");
      }
      deliver(w, fr);
    }
    demod.clear_packets();
  }

  void deliver(Worker& w, const FrameRecord& fr) {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (const std::shared_ptr<Subscriber>& sp : subs_) {
      Subscriber& s = *sp;
      std::lock_guard<std::mutex> sk(s.m);
      if (s.stop) continue;
      if (s.q.size() >= s.cap) {
        // Backpressure: the slow subscriber sheds its own frames; the
        // worker moves on immediately.
        ++w.ingest.frames_dropped_subscriber;
        continue;
      }
      s.q.push_back(fr);
      s.cv.notify_one();
    }
  }

  static void subscriber_main(Subscriber& s) {
    obs::set_thread_name("subscriber");
    std::unique_lock<std::mutex> lk(s.m);
    for (;;) {
      s.cv.wait(lk, [&] { return s.stop || !s.q.empty(); });
      if (s.q.empty()) break;  // stop requested and everything delivered
      FrameRecord fr = std::move(s.q.front());
      s.q.pop_front();
      s.in_flight = true;
      lk.unlock();
      try {
        obs::ScopedTimer t(
            "deliver", s.metrics != nullptr
                           ? &s.metrics->histogram(obs::Stage::kDeliver)
                           : nullptr);
        s.fn(fr);
      } catch (...) {
        // A subscriber's exception must not take down delivery; the
        // frame counts as delivered.
      }
      lk.lock();
      s.in_flight = false;
      s.cv.notify_all();  // drain() waits on empty-and-idle
    }
  }

  // ---- self-healing supervisor ---------------------------------------

  void emit_event(const char* msg) {
    if (base_cfg.on_event) base_cfg.on_event(std::string(msg));
  }

  /// Watchdog + degradation controller. One thread, one poll cadence:
  /// each tick it (a) ages every busy worker's heartbeat and job start
  /// against the configured bounds and fires the worker's cancel token
  /// at most once per job, and (b) feeds the ladder the worst rescan
  /// backlog plus the *windowed* p99 latency (histogram bucket delta
  /// since the previous tick) and publishes the resulting level for
  /// workers to adopt at their next chunk.
  void watchdog_main() {
    obs::set_thread_name("watchdog");
    DegradationLadder ladder(base_cfg.degradation);
    std::array<std::uint64_t, LatencyHistogram::kBuckets> prev{};
    std::array<std::uint64_t, LatencyHistogram::kBuckets> cur{};
    std::array<std::uint64_t, LatencyHistogram::kBuckets> delta{};
    const std::uint64_t hb_ns =
        base_cfg.watchdog.heartbeat_timeout_ms * 1'000'000ull;
    const std::uint64_t dl_ns =
        base_cfg.watchdog.job_deadline_ms * 1'000'000ull;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(watchdog_mu_);
        watchdog_cv_.wait_for(
            lk, std::chrono::milliseconds(base_cfg.watchdog.poll_ms),
            [&] { return watchdog_stop_; });
        if (watchdog_stop_) return;
      }
      const std::uint64_t now = now_ns();
      std::uint64_t worst_backlog = 0;
      for (const auto& wp : workers_) {
        Worker& w = *wp;
        worst_backlog = std::max(
            worst_backlog, w.rescan_backlog.load(std::memory_order_relaxed));
        const std::uint64_t start =
            w.job_start_ns.load(std::memory_order_acquire);
        // Idle, or this job was already cancelled (the token stays set
        // until the worker arms the next job) — nothing to supervise.
        if (start == 0 || w.cancel.load(std::memory_order_relaxed)) continue;
        std::uint8_t kind = 0;
        if (hb_ns != 0) {
          const std::uint64_t hb =
              w.heartbeat_ns.load(std::memory_order_relaxed);
          if (now > hb && now - hb >= hb_ns) kind = 1;
        }
        // Deadlines apply to finite work (trace replays); a live
        // stream is open-ended by design and only heartbeat-supervised.
        if (kind == 0 && dl_ns != 0 &&
            !w.job_is_stream.load(std::memory_order_relaxed) && now > start &&
            now - start >= dl_ns) {
          kind = 2;
        }
        if (kind == 0) continue;
        w.cancel_kind.store(kind, std::memory_order_relaxed);
        w.cancel.store(true, std::memory_order_release);
        w.cv.notify_all();
        w.cancels.fetch_add(1, std::memory_order_relaxed);
        (kind == 1 ? watchdog_cancels_ : deadline_cancels_)
            .fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(kind == 1 ? "watchdog_cancel"
                                     : "deadline_cancel");
        if (base_cfg.on_event) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "watchdog: cancelling job %llu on worker %u (%s)",
                        static_cast<unsigned long long>(
                            w.current_job.load(std::memory_order_relaxed)),
                        w.index,
                        kind == 1 ? "heartbeat timeout" : "deadline exceeded");
          emit_event(buf);
        }
      }
      if (base_cfg.degradation.enabled) {
        latency_.snapshot_counts(cur);
        for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
          delta[i] = cur[i] - prev[i];
        }
        prev = cur;
        const std::uint64_t p99 =
            LatencyHistogram::quantile_from_counts(delta, 0.99);
        window_p99_us_.store(p99, std::memory_order_relaxed);
        if (ladder.update(worst_backlog, p99)) {
          const DegradationLevel lvl = ladder.level();
          degradation_level_.store(static_cast<std::uint8_t>(lvl),
                                   std::memory_order_relaxed);
          degradation_transitions_.store(ladder.transitions(),
                                         std::memory_order_relaxed);
          obs::trace_instant("degradation_transition");
          if (base_cfg.on_event) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "degradation: level -> %u (%s), backlog=%llu p99=%lluus",
                static_cast<unsigned>(lvl), to_string(lvl),
                static_cast<unsigned long long>(worst_backlog),
                static_cast<unsigned long long>(p99));
            emit_event(buf);
          }
        }
      }
    }
  }
};

saiyan::Result<std::unique_ptr<Gateway>> Gateway::create(
    const GatewayConfig& cfg) {
  if (auto v = cfg.validate(); !v.ok()) return v.error();
  return std::unique_ptr<Gateway>(new Gateway(cfg));
}

Gateway::Gateway(const GatewayConfig& cfg) : impl_(new Impl(cfg)) {
  impl_->workers_.reserve(cfg.workers);
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    auto w = std::make_unique<Impl::Worker>();
    w->index = static_cast<std::uint32_t>(i);
    impl_->workers_.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    Impl::Worker& w = *impl_->workers_[i];
    w.thr = std::thread([this, &w] { impl_->worker_main(w); });
  }
  if (cfg.watchdog.heartbeat_timeout_ms != 0 ||
      cfg.watchdog.job_deadline_ms != 0 || cfg.degradation.enabled) {
    impl_->watchdog_thr_ = std::thread([this] { impl_->watchdog_main(); });
  }
}

Gateway::~Gateway() {
  {
    std::lock_guard<std::mutex> lk(impl_->watchdog_mu_);
    impl_->watchdog_stop_ = true;
  }
  impl_->watchdog_cv_.notify_all();
  if (impl_->watchdog_thr_.joinable()) impl_->watchdog_thr_.join();
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    impl_->stop_ = true;
  }
  for (auto& w : impl_->workers_) w->cv.notify_all();
  for (auto& w : impl_->workers_) {
    if (w->thr.joinable()) w->thr.join();
  }
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    subs.swap(impl_->subs_);
  }
  for (const std::shared_ptr<Subscriber>& s : subs) {
    {
      std::lock_guard<std::mutex> lk(s->m);
      s->stop = true;
    }
    s->cv.notify_all();
    if (s->thr.joinable()) s->thr.join();
  }
}

saiyan::Result<std::uint64_t> Gateway::enqueue_trace(const std::string& path) {
  bool resync;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    resync = impl_->cfg->resync;
  }
  // Validate the header here so a bad file fails the caller, not a
  // worker; the marker count feeds the ground-truth expectation.
  auto probe = stream::TraceReader::open(path, resync);
  if (!probe.ok()) return probe.error();
  impl_->markers_expected.fetch_add(probe.value().markers().size(),
                                    std::memory_order_relaxed);
  return impl_->submit(Job{0, path, nullptr});
}

StreamId Gateway::open_stream() {
  impl_->streams_open.fetch_add(1, std::memory_order_relaxed);
  return impl_->submit(Job{0, {}, std::make_shared<LiveStream>()});
}

saiyan::Result<Unit> Gateway::push(StreamId stream,
                                   std::span<const dsp::Complex> chunk) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto it = impl_->streams_.find(stream);
    if (it == impl_->streams_.end() || it->second->closed) {
      return fail("push: unknown or closed stream " + std::to_string(stream));
    }
    it->second->chunks.emplace_back(chunk.begin(), chunk.end());
  }
  for (auto& w : impl_->workers_) w->cv.notify_all();
  return Unit{};
}

saiyan::Result<Unit> Gateway::close_stream(StreamId stream) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto it = impl_->streams_.find(stream);
    if (it == impl_->streams_.end() || it->second->closed) {
      return fail("close_stream: unknown or closed stream " +
                  std::to_string(stream));
    }
    it->second->closed = true;
  }
  impl_->streams_open.fetch_sub(1, std::memory_order_relaxed);
  for (auto& w : impl_->workers_) w->cv.notify_all();
  return Unit{};
}

SubscriberId Gateway::subscribe(FrameHandler handler) {
  auto s = std::make_shared<Subscriber>();
  s->fn = std::move(handler);
  s->cap = impl_->base_cfg.limits.subscriber_queue;
  s->metrics = &impl_->stage_metrics_;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    s->id = impl_->next_sub_++;
    impl_->subs_.push_back(s);
  }
  impl_->n_subs.fetch_add(1, std::memory_order_relaxed);
  s->thr = std::thread([s] { Impl::subscriber_main(*s); });
  return s->id;
}

void Gateway::unsubscribe(SubscriberId id) {
  std::shared_ptr<Subscriber> victim;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    for (auto it = impl_->subs_.begin(); it != impl_->subs_.end(); ++it) {
      if ((*it)->id == id) {
        victim = *it;
        impl_->subs_.erase(it);
        break;
      }
    }
  }
  if (!victim) return;
  impl_->n_subs.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(victim->m);
    victim->stop = true;  // queued frames are still delivered first
  }
  victim->cv.notify_all();
  if (victim->thr.joinable()) victim->thr.join();
}

saiyan::Result<Unit> Gateway::reload(const GatewayConfig& cfg) {
  if (auto v = cfg.validate(); !v.ok()) return v.error();
  if (cfg.workers != impl_->base_cfg.workers) {
    return fail("reload: workers is fixed at create()");
  }
  if (cfg.limits.subscriber_queue != impl_->base_cfg.limits.subscriber_queue) {
    return fail("reload: limits.subscriber_queue is fixed at create()");
  }
  if (!(cfg.watchdog == impl_->base_cfg.watchdog)) {
    return fail("reload: watchdog config is fixed at create()");
  }
  if (!(cfg.degradation == impl_->base_cfg.degradation)) {
    return fail("reload: degradation config is fixed at create()");
  }
  if (!(cfg.link == impl_->base_cfg.link)) {
    // The registry is sized once and shared by every worker; resizing
    // or re-keying it mid-serve would tear live seqlock slots.
    return fail("reload: link telemetry config is fixed at create()");
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    if (impl_->draining_ > 0) {
      // A drain() is waiting for the worker pool to empty; swapping the
      // config underneath it is an undefined mix of old and new jobs.
      // Reject with a typed error — the caller retries after the drain.
      return fail("reload: rejected while drain() is in progress");
    }
    impl_->cfg = std::make_shared<const GatewayConfig>(cfg);
    ++impl_->cfg_gen;
  }
  impl_->config_reloads.fetch_add(1, std::memory_order_relaxed);
  return Unit{};
}

saiyan::Result<Unit> Gateway::drain() {
  {
    std::unique_lock<std::mutex> lk(impl_->mu_);
    for (const auto& [id, ls] : impl_->streams_) {
      if (!ls->closed) {
        return fail("drain: live stream " + std::to_string(id) +
                    " still open (close_stream it first)");
      }
    }
    ++impl_->draining_;  // reload() is rejected until we finish
    impl_->idle_cv_.wait(lk, [&] {
      for (const auto& w : impl_->workers_) {
        if (w->busy || !w->jobs.empty()) return false;
      }
      return true;
    });
  }
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    subs = impl_->subs_;
  }
  for (const std::shared_ptr<Subscriber>& s : subs) {
    std::unique_lock<std::mutex> sk(s->m);
    s->cv.wait(sk, [&] { return s->q.empty() && !s->in_flight; });
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    --impl_->draining_;
  }
  return Unit{};
}

saiyan::Result<JobStatus> Gateway::job_status(std::uint64_t job) const {
  {
    std::lock_guard<std::mutex> lk(impl_->jobs_mu_);
    auto it = impl_->outcomes_.find(job);
    if (it != impl_->outcomes_.end()) return it->second;
  }
  std::lock_guard<std::mutex> lk(impl_->mu_);
  if (job >= impl_->next_job_) {
    return fail("job_status: unknown job " + std::to_string(job));
  }
  return JobStatus{};  // issued but not completed: pending
}

GatewayStats Gateway::stats() const {
  const Impl& im = *impl_;
  GatewayStats s;
  s.uptime_s = std::chrono::duration<double>(Clock::now() - im.start_).count();
  s.workers = im.workers_.size();
  s.subscribers = im.n_subs.load(std::memory_order_relaxed);
  s.jobs_enqueued = im.jobs_enqueued.load(std::memory_order_relaxed);
  s.jobs_done = im.jobs_done.load(std::memory_order_relaxed);
  s.jobs_failed = im.jobs_failed.load(std::memory_order_relaxed);
  s.streams_open = im.streams_open.load(std::memory_order_relaxed);
  s.config_reloads = im.config_reloads.load(std::memory_order_relaxed);
  s.markers_expected = im.markers_expected.load(std::memory_order_relaxed);
  s.watchdog_cancels = im.watchdog_cancels_.load(std::memory_order_relaxed);
  s.deadline_cancels = im.deadline_cancels_.load(std::memory_order_relaxed);
  s.degradation_level = im.degradation_level_.load(std::memory_order_relaxed);
  s.degradation_transitions =
      im.degradation_transitions_.load(std::memory_order_relaxed);
  s.per_worker.reserve(im.workers_.size());
  for (const auto& wp : im.workers_) {
    const WorkerCounters& c = wp->counters;
    WorkerSnapshot ws;
    ws.frames = c.frames.load(std::memory_order_relaxed);
    ws.symbols = c.symbols.load(std::memory_order_relaxed);
    ws.samples = c.samples.load(std::memory_order_relaxed);
    ws.chunks = c.chunks.load(std::memory_order_relaxed);
    ws.jobs = c.jobs.load(std::memory_order_relaxed);
    ws.truncated = c.truncated.load(std::memory_order_relaxed);
    s.frames_decoded += ws.frames;
    s.symbols_decoded += ws.symbols;
    s.samples_consumed += ws.samples;
    s.chunks_ingested += ws.chunks;
    s.truncated_frames += ws.truncated;
    s.ingest.merge(wp->ingest_pub.load());
    s.per_worker.push_back(ws);
  }
  if (s.uptime_s > 0.0) {
    s.frames_per_sec = static_cast<double>(s.frames_decoded) / s.uptime_s;
    s.msamples_per_sec =
        static_cast<double>(s.samples_consumed) / s.uptime_s / 1e6;
  }
  // Quantiles interpolate inside a log2 bucket; clamp to the true max
  // so p99 never reads above the worst sample actually seen.
  s.latency_max_us = im.latency_.max_us();
  s.latency_p50_us = std::min(im.latency_.quantile_us(0.50), s.latency_max_us);
  s.latency_p99_us = std::min(im.latency_.quantile_us(0.99), s.latency_max_us);
  im.latency_.snapshot_counts(s.latency_buckets);
  s.latency_count = LatencyHistogram::total_from_counts(s.latency_buckets);
  s.latency_sum_us = im.latency_.sum_us();
  s.latency_saturated =
      LatencyHistogram::saturated_from_counts(s.latency_buckets);
  s.stages.reserve(obs::kStageCount);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const LatencyHistogram& h = im.stage_metrics_.histogram(stage);
    StageLatencySnapshot st;
    st.stage = obs::to_string(stage);
    h.snapshot_counts(st.buckets);
    st.count = LatencyHistogram::total_from_counts(st.buckets);
    st.sum_us = h.sum_us();
    st.max_us = h.max_us();
    st.p50_us = std::min(
        LatencyHistogram::quantile_from_counts(st.buckets, 0.50), st.max_us);
    st.p99_us = std::min(
        LatencyHistogram::quantile_from_counts(st.buckets, 0.99), st.max_us);
    st.saturated = LatencyHistogram::saturated_from_counts(st.buckets);
    s.stages.push_back(st);
  }
  s.trace_events_dropped = obs::events_dropped_total();
  s.links = im.link_telemetry_.snapshot();
  s.link_top_k = im.base_cfg.link.prom_top_k;
  return s;
}

obs::LinkRegistrySnapshot Gateway::links() const {
  return impl_->link_telemetry_.snapshot();
}

GatewayHealth Gateway::health() const {
  const Impl& im = *impl_;
  GatewayHealth h;
  h.uptime_s = std::chrono::duration<double>(Clock::now() - im.start_).count();
  h.config_generation = im.cfg_gen.load(std::memory_order_relaxed);
  h.degradation_level = im.degradation_level_.load(std::memory_order_relaxed);
  h.degradation_name =
      to_string(static_cast<DegradationLevel>(h.degradation_level));
  h.degradation_transitions =
      im.degradation_transitions_.load(std::memory_order_relaxed);
  h.watchdog_cancels = im.watchdog_cancels_.load(std::memory_order_relaxed);
  h.deadline_cancels = im.deadline_cancels_.load(std::memory_order_relaxed);
  h.window_p99_us = im.window_p99_us_.load(std::memory_order_relaxed);
  const std::uint64_t now = now_ns();
  h.workers.reserve(im.workers_.size());
  for (const auto& wp : im.workers_) {
    const Impl::Worker& w = *wp;
    WorkerHealth wh;
    const std::uint64_t start = w.job_start_ns.load(std::memory_order_acquire);
    wh.busy = start != 0;
    if (wh.busy) {
      wh.job = w.current_job.load(std::memory_order_relaxed);
      wh.job_age_ms = now > start ? (now - start) / 1'000'000 : 0;
      const std::uint64_t hb = w.heartbeat_ns.load(std::memory_order_relaxed);
      wh.heartbeat_age_ms = now > hb ? (now - hb) / 1'000'000 : 0;
    }
    wh.cancels = w.cancels.load(std::memory_order_relaxed);
    wh.rescan_backlog = w.rescan_backlog.load(std::memory_order_relaxed);
    wh.jobs_completed = w.counters.jobs.load(std::memory_order_relaxed);
    h.rescan_backlog = std::max(h.rescan_backlog, wh.rescan_backlog);
    h.jobs_cancelled += w.ingest_pub.load().jobs_cancelled;
    h.workers.push_back(wh);
  }
  return h;
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

}  // namespace saiyan::gateway
