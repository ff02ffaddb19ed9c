// Gateway facade + daemon plumbing tests (ctest label: gateway).
//
// The load-bearing property is the sharding contract: a job runs on
// exactly one worker, so the gateway's decode output for a trace is
// bit-identical to an offline StreamingDemodulator pass at ANY worker
// count. Everything else — Result conventions, config validation with
// first-bad-field reporting, reload-without-loss, subscriber
// backpressure, the control wire codec — guards the API redesign this
// facade introduced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "daemon/control_protocol.hpp"
#include "daemon/daemon_config.hpp"
#include "fault/chaos.hpp"
#include "gateway/degradation.hpp"
#include "gateway/gateway.hpp"
#include "gateway/gateway_metrics.hpp"
#include "sim/capture.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"

namespace saiyan {
namespace {

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

constexpr std::size_t kPayload = 16;

/// Nine frames from three tags at staggered RSS — fully decodable
/// offline, which the bit-identity tests assert before relying on it.
const sim::CaptureConfig& capture_cfg() {
  static const sim::CaptureConfig cfg = [] {
    sim::CaptureConfig c;
    c.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
    c.tag_rss_dbm = {-55.0, -58.0, -61.0};
    c.packets_per_tag = 3;
    c.payload_symbols = kPayload;
    c.seed = 7;
    return c;
  }();
  return cfg;
}

const sim::Capture& capture() {
  static const sim::Capture cap = sim::generate_capture(capture_cfg());
  return cap;
}

gateway::GatewayConfig base_config() {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  return cfg;
}

/// (start, symbols) pairs in offset order — the identity compared
/// across worker counts and against the offline reference.
using FrameKey = std::pair<std::uint64_t, std::vector<std::uint32_t>>;

std::vector<FrameKey> offline_reference(const std::string& trace_path,
                                        const gateway::GatewayConfig& cfg) {
  auto opened = stream::TraceReader::open(trace_path, cfg.resync);
  EXPECT_TRUE(opened.ok()) << opened.message();
  stream::TraceReader reader = std::move(opened).value();
  stream::StreamConfig sc = cfg.worker_stream_config();
  sc.saiyan = core::SaiyanConfig::make(reader.meta().phy, reader.meta().mode);
  sc.payload_symbols = reader.meta().payload_symbols;
  stream::StreamingDemodulator demod(sc);
  dsp::Signal chunk;
  for (;;) {
    const stream::ChunkStatus st = reader.next_chunk(chunk);
    if (st != stream::ChunkStatus::kOk) break;
    demod.push(chunk);
  }
  demod.finish();
  std::vector<FrameKey> out;
  for (const stream::DecodedPacket& p : demod.packets()) {
    const auto syms = demod.symbols(p);
    out.emplace_back(p.packet_start,
                     std::vector<std::uint32_t>(syms.begin(), syms.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GatewayFile : public ::testing::Test {
 protected:
  void SetUp() override {
    std::snprintf(path_, sizeof(path_), "saiyan_gw_%s_%d.sytrc",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  static_cast<int>(::getpid()));
    sim::write_capture(capture(), capture_cfg(), path_);
  }
  void TearDown() override { std::remove(path_); }

  char path_[128];
};

/// Thread-safe frame collector subscriber.
class Collector {
 public:
  gateway::FrameHandler handler() {
    return [this](const gateway::FrameRecord& fr) {
      std::lock_guard<std::mutex> lk(m_);
      frames_.push_back(fr);
    };
  }
  std::vector<gateway::FrameRecord> take() {
    std::lock_guard<std::mutex> lk(m_);
    return frames_;
  }

 private:
  std::mutex m_;
  std::vector<gateway::FrameRecord> frames_;
};

// ---------------------------------------------------------------- Result

TEST(Result, ValueAndErrorPaths) {
  saiyan::Result<int> good = 41;
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 41);
  EXPECT_EQ(good.value_or(-1), 41);
  EXPECT_TRUE(good.message().empty());

  saiyan::Result<int> bad = fail("nope", stream::IngestError::kBadMagic);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_EQ(bad.error().ingest, stream::IngestError::kBadMagic);
  EXPECT_THROW((void)bad.value(), std::logic_error);

  saiyan::Result<Unit> u = ok();
  EXPECT_TRUE(u.ok());
}

// ---------------------------------------------------------- GatewayConfig

TEST(GatewayConfigValidate, ReportsFirstBadFieldByPath) {
  gateway::GatewayConfig cfg = base_config();
  cfg.stream.min_score = 0.0;
  cfg.workers = 0;  // also bad, but min_score comes first
  auto v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("stream.min_score"), std::string::npos)
      << v.message();

  cfg = base_config();
  cfg.workers = 0;
  v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("workers"), std::string::npos);

  cfg = base_config();
  cfg.limits.subscriber_queue = 0;
  v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("limits.subscriber_queue"), std::string::npos);

  EXPECT_TRUE(base_config().validate().ok());
}

// ------------------------------------------------------ TraceReader::open

TEST(TraceReaderOpen, ClassifiesFailures) {
  auto missing = stream::TraceReader::open("does_not_exist.sytrc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().ingest, stream::IngestError::kBadHeader);

  auto magic = stream::TraceReader::from_bytes("NOTATRACE........");
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.error().ingest, stream::IngestError::kBadMagic);
}

// -------------------------------------------------------- control protocol

TEST(ControlProtocol, RequestRoundTrip) {
  daemon::ControlRequest req;
  req.op = daemon::ControlOp::kReload;
  req.payload = "payload bytes";
  const std::string wire = daemon::encode_request(req);
  auto back = daemon::decode_request(wire);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().op, daemon::ControlOp::kReload);
  EXPECT_EQ(back.value().payload, "payload bytes");
}

TEST(ControlProtocol, ResponseRoundTrip) {
  daemon::ControlResponse resp;
  resp.status = daemon::ControlStatus::kError;
  resp.payload = "why it failed";
  auto back = daemon::decode_response(daemon::encode_response(resp));
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().status, daemon::ControlStatus::kError);
  EXPECT_EQ(back.value().payload, "why it failed");
}

TEST(ControlProtocol, RejectsMalformedFrames) {
  EXPECT_FALSE(daemon::decode_request("").ok());
  EXPECT_FALSE(daemon::decode_request("abc").ok());  // short header

  // Length prefix disagrees with the actual frame size.
  std::string wire = daemon::encode_request({daemon::ControlOp::kStats, ""});
  wire.push_back('x');
  EXPECT_FALSE(daemon::decode_request(wire).ok());

  // Unknown op byte.
  std::string bad_op = daemon::encode_request({daemon::ControlOp::kStats, ""});
  bad_op[4] = 99;
  EXPECT_FALSE(daemon::decode_request(bad_op).ok());

  // Absurd declared length must be rejected before allocation.
  std::string huge = "\xff\xff\xff\x7f";
  huge.push_back(1);
  EXPECT_FALSE(daemon::decode_request(huge).ok());
}

// ----------------------------------------------------------- daemon config

TEST(DaemonConfig, ParsesAndValidates) {
  char path[128];
  std::snprintf(path, sizeof(path), "saiyan_gw_conf_%d.conf",
                static_cast<int>(::getpid()));
  {
    std::ofstream out(path);
    out << "# demo config\n"
        << "socket /tmp/test_saiyand.sock\n"
        << "workers 2\n"
        << "throttle_us 4096\n"
        << "payload_symbols 16   # inline comment\n"
        << "trace a.sytrc\n"
        << "trace b.sytrc\n";
  }
  auto loaded = daemon::load_daemon_config(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(loaded.value().socket_path, "/tmp/test_saiyand.sock");
  EXPECT_EQ(loaded.value().gateway.workers, 2u);
  EXPECT_EQ(loaded.value().gateway.throttle_us, 4096u);
  EXPECT_EQ(loaded.value().gateway.stream.payload_symbols, 16u);
  ASSERT_EQ(loaded.value().traces.size(), 2u);
  EXPECT_EQ(loaded.value().traces[1], "b.sytrc");

  {
    std::ofstream out(path);
    out << "workers 2\nbogus_key 1\n";
  }
  auto bad = daemon::load_daemon_config(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find(":2:"), std::string::npos) << bad.message();

  // There is no chunk-size knob: the key is as unknown as any other.
  {
    std::ofstream out(path);
    out << "workers 2\nchunk_samples 4096\n";
  }
  auto gone = daemon::load_daemon_config(path);
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.message().find(":2:"), std::string::npos) << gone.message();

  {
    std::ofstream out(path);
    out << "workers 0\n";
  }
  auto range = daemon::load_daemon_config(path);
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.message().find("workers"), std::string::npos);
  std::remove(path);
}

// ----------------------------------------------------------------- gateway

TEST(GatewayCreate, RejectsBadConfigWithFieldPath) {
  gateway::GatewayConfig cfg = base_config();
  cfg.stream.min_score = 2.0;
  auto gw = gateway::Gateway::create(cfg);
  ASSERT_FALSE(gw.ok());
  EXPECT_NE(gw.message().find("stream.min_score"), std::string::npos);
}

TEST_F(GatewayFile, EnqueueRejectsMissingAndCorruptTraces) {
  auto gw = gateway::Gateway::create(base_config());
  ASSERT_TRUE(gw.ok()) << gw.message();
  auto job = gw.value()->enqueue_trace("no_such_file.sytrc");
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.error().ingest, stream::IngestError::kBadHeader);
  EXPECT_EQ(gw.value()->stats().jobs_enqueued, 0u);
}

TEST_F(GatewayFile, BitIdenticalToOfflineAtAnyWorkerCount) {
  const gateway::GatewayConfig base = base_config();
  const std::vector<FrameKey> expected = offline_reference(path_, base);
  ASSERT_EQ(expected.size(), capture().markers.size())
      << "reference capture must be fully decodable";

  for (const std::size_t workers : {1u, 2u, 4u}) {
    gateway::GatewayConfig cfg = base;
    cfg.workers = workers;
    auto created = gateway::Gateway::create(cfg);
    ASSERT_TRUE(created.ok()) << created.message();
    auto& gw = *created.value();
    Collector col;
    gw.subscribe(col.handler());

    // Several copies of the job spread over the pool.
    constexpr std::size_t kJobs = 4;
    std::vector<std::uint64_t> job_ids;
    for (std::size_t j = 0; j < kJobs; ++j) {
      auto id = gw.enqueue_trace(path_);
      ASSERT_TRUE(id.ok()) << id.message();
      job_ids.push_back(id.value());
    }
    ASSERT_TRUE(gw.drain().ok());

    const std::vector<gateway::FrameRecord> frames = col.take();
    ASSERT_EQ(frames.size(), kJobs * expected.size()) << workers << " workers";
    for (const std::uint64_t id : job_ids) {
      std::vector<FrameKey> got;
      for (const gateway::FrameRecord& fr : frames) {
        if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << workers << " workers, job " << id;
    }

    const gateway::GatewayStats st = gw.stats();
    EXPECT_EQ(st.frames_decoded, kJobs * expected.size());
    EXPECT_EQ(st.jobs_done, kJobs);
    EXPECT_EQ(st.markers_expected, kJobs * capture().markers.size());
    EXPECT_EQ(st.ingest.frames_dropped_subscriber, 0u);
    if (workers >= 2) {
      // Round-robin must actually spread jobs over the pool.
      std::size_t active = 0;
      for (const gateway::WorkerSnapshot& w : st.per_worker) {
        active += w.jobs > 0 ? 1 : 0;
      }
      EXPECT_GE(active, 2u) << workers << " workers";
    }
  }
}

TEST_F(GatewayFile, ReloadKeepsInFlightJobsAndCountsSwaps) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  // Throttle so the first job is still in flight when reload lands.
  cfg.throttle_us = 2000;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  gateway::GatewayConfig next = cfg;
  next.throttle_us = 0;
  next.stream.min_score = 0.7;
  ASSERT_TRUE(gw.reload(next).ok());
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());

  // Zero frames lost across the swap: both jobs decoded everything.
  EXPECT_EQ(col.take().size(), 2 * capture().markers.size());
  EXPECT_EQ(gw.stats().config_reloads, 1u);

  // Fixed-at-create knobs are rejected with a clear message.
  gateway::GatewayConfig bad = cfg;
  bad.workers = 4;
  auto r = gw.reload(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("workers"), std::string::npos);
}

TEST_F(GatewayFile, SlowSubscriberShedsFramesWithoutStallingWorkers) {
  // Declared before the gateway so that they outlive its subscriber
  // threads.
  std::latch release_slow(1);
  std::atomic<std::size_t> delivered{0};
  gateway::GatewayConfig cfg = base_config();
  cfg.limits.subscriber_queue = 1;  // smallest legal queue
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  // The slow handler parks on a latch from its first frame until the
  // job is done. If a worker waited on it, the job could not finish; a
  // kDone while the handler is still held proves that none did, with
  // no wall-clock bound. Each subscriber has its own delivery thread,
  // and with a one-frame queue the held subscriber must shed.
  const std::size_t total = capture().markers.size();
  gw.subscribe([&](const gateway::FrameRecord&) {
    delivered.fetch_add(1);
    release_slow.wait();
  });
  Collector fast;
  gw.subscribe(fast.handler());

  const auto job = gw.enqueue_trace(path_);
  ASSERT_TRUE(job.ok()) << job.message();
  gateway::JobState state = gateway::JobState::kPending;
  while (state == gateway::JobState::kPending) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto st = gw.job_status(job.value());
    if (!st.ok()) break;
    state = st.value().state;
  }
  const std::size_t delivered_while_held = delivered.load();
  release_slow.count_down();
  ASSERT_TRUE(gw.drain().ok());
  EXPECT_EQ(state, gateway::JobState::kDone) << gateway::to_string(state);
  EXPECT_LE(delivered_while_held, 1u);

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.frames_decoded, total);
  // The fast subscriber saw everything; the slow one shed the excess
  // and every shed frame is accounted for.
  EXPECT_EQ(fast.take().size(), total);
  EXPECT_GT(st.ingest.frames_dropped_subscriber, 0u);
  EXPECT_EQ(delivered.load() + st.ingest.frames_dropped_subscriber, total);
}

TEST_F(GatewayFile, UnsubscribeDeliversQueuedFramesFirst) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  const gateway::SubscriberId id = gw.subscribe(col.handler());
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());
  gw.unsubscribe(id);
  EXPECT_EQ(col.take().size(), capture().markers.size());
  EXPECT_EQ(gw.stats().subscribers, 0u);
}

TEST(GatewayLiveStream, MatchesOfflineAndGuardsDrain) {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  cfg.workers = 2;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  const gateway::StreamId sid = gw.open_stream();
  EXPECT_EQ(gw.stats().streams_open, 1u);

  // drain() with a live producer is an error, not a deadlock.
  auto premature = gw.drain();
  ASSERT_FALSE(premature.ok());
  EXPECT_NE(premature.message().find("still open"), std::string::npos);

  const dsp::Signal& samples = capture().samples;
  constexpr std::size_t kPush = 10000;
  for (std::size_t off = 0; off < samples.size(); off += kPush) {
    const std::size_t n = std::min(kPush, samples.size() - off);
    ASSERT_TRUE(gw.push(sid, std::span(samples).subspan(off, n)).ok());
  }
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_FALSE(gw.push(sid, std::span(samples).first(1)).ok())
      << "push after close must fail";
  ASSERT_TRUE(gw.drain().ok());

  // Offline reference over the same samples with the same config.
  stream::StreamingDemodulator demod(cfg.worker_stream_config());
  demod.push(samples);
  demod.finish();
  std::vector<FrameKey> expected;
  for (const stream::DecodedPacket& p : demod.packets()) {
    const auto syms = demod.symbols(p);
    expected.emplace_back(p.packet_start,
                          std::vector<std::uint32_t>(syms.begin(), syms.end()));
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  std::vector<FrameKey> got;
  for (const gateway::FrameRecord& fr : col.take()) {
    got.emplace_back(fr.packet_start, fr.symbols);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(gw.stats().streams_open, 0u);
}

// A live stream has one id: open_stream() returns the job id its
// frames carry and job_status() reports on.
TEST(GatewayLiveStream, StreamIdIsTheJobIdOfItsFrames) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());
  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.push(sid, capture().samples).ok());
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());

  const std::vector<gateway::FrameRecord> frames = col.take();
  ASSERT_FALSE(frames.empty());
  for (const gateway::FrameRecord& fr : frames) EXPECT_EQ(fr.job, sid);
  auto status = gw.job_status(sid);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(status.value().state, gateway::JobState::kDone);
}

// A live stream wedged in its first chunk is cancelled by the
// heartbeat watchdog and torn down: pushers get an error, the stream
// no longer counts as open, and drain() needs no close_stream.
TEST(GatewayLiveStream, WatchdogCancelTearsDownStream) {
  gateway::GatewayConfig cfg = base_config();
  cfg.watchdog.poll_ms = 10;
  cfg.watchdog.heartbeat_timeout_ms = 200;
  cfg.chunk_hook = [](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    while (!info.cancel->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.push(sid, std::span(capture().samples).first(8192)).ok());

  // The outcome is recorded only after the worker has torn the stream
  // down, so every check below sees the finished teardown.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  gateway::JobStatus st;
  for (;;) {
    auto s = gw.job_status(sid);
    ASSERT_TRUE(s.ok()) << s.message();
    st = s.value();
    if (st.state != gateway::JobState::kPending) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the wedged stream was never cancelled";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(st.state, gateway::JobState::kCancelled);
  EXPECT_NE(st.message.find("heartbeat"), std::string::npos) << st.message;

  EXPECT_FALSE(gw.push(sid, std::span(capture().samples).first(1)).ok())
      << "push into a cancelled stream must fail";
  EXPECT_EQ(gw.stats().streams_open, 0u);
  ASSERT_TRUE(gw.drain().ok()) << "a cancelled stream needs no close_stream";
  EXPECT_EQ(gw.stats().ingest.jobs_cancelled, 1u);
}

TEST_F(GatewayFile, StatsTextCarriesTheDocumentedKeys) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());
  const std::string text = gw.stats().to_text();
  for (const char* key :
       {"frames_decoded", "markers_expected", "latency_p99_us",
        "ingest.frames_dropped_subscriber", "worker.0.frames",
        "jobs_done", "frames_per_sec"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
  }
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.frames_decoded, capture().markers.size());
  EXPECT_GT(st.latency_max_us, 0u);
  EXPECT_GE(st.latency_p99_us, st.latency_p50_us);
}

TEST(GatewayLinks, RegistryTracksTagsEndToEnd) {
  // link_headers capture: payload symbol 0 carries the tag id, symbol
  // 1 a per-tag sequence counter — the telescope's ground truth.
  sim::CaptureConfig ccfg = capture_cfg();
  ccfg.link_headers = true;
  const sim::Capture cap = sim::generate_capture(ccfg);
  char path[128];
  std::snprintf(path, sizeof(path), "saiyan_gw_links_%d.sytrc",
                static_cast<int>(::getpid()));
  sim::write_capture(cap, ccfg, path);

  gateway::GatewayConfig cfg = base_config();
  cfg.link.sequence_symbol = true;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector sink;
  gw.subscribe(sink.handler());
  ASSERT_TRUE(gw.enqueue_trace(path).ok());
  ASSERT_TRUE(gw.drain().ok());
  std::remove(path);

  // Registry: one link per tag, every frame attributed, no inferred
  // losses (each tag's counter is consecutive), frames_total matches.
  const obs::LinkRegistrySnapshot links = gw.links();
  const std::size_t n_tags = ccfg.tag_rss_dbm.size();
  ASSERT_EQ(links.links.size(), n_tags);
  EXPECT_EQ(links.frames_total, cap.markers.size());
  EXPECT_EQ(links.evictions, 0u);
  for (const obs::LinkSnapshot& l : links.links) {
    EXPECT_LT(l.tag_id, n_tags);
    EXPECT_EQ(l.channel, 0u);
    EXPECT_EQ(l.frames, ccfg.packets_per_tag);
    EXPECT_EQ(l.lost_frames, 0u);
    EXPECT_GT(l.last_seen_us, 0u);
  }

  // Delivered frames carry the identity, and stats()/Prometheus/the
  // links-op text all agree with the registry.
  for (const gateway::FrameRecord& fr : sink.take()) {
    EXPECT_LT(fr.tag_id, n_tags);
    EXPECT_EQ(fr.channel, 0u);
  }
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.links.links.size(), n_tags);
  EXPECT_NE(st.to_text().find("links_tracked 3"), std::string::npos);
  const std::string prom = gateway::to_prometheus(st);
  EXPECT_NE(prom.find("saiyan_link_frames_total"), std::string::npos);
  EXPECT_NE(prom.find("tag=\"other\",channel=\"all\""), std::string::npos);
  EXPECT_NE(prom.find("saiyan_noise_floor_db"), std::string::npos);
  EXPECT_NE(prom.find("saiyan_frame_latency_saturated_total"),
            std::string::npos);
  const std::string listing =
      gateway::links_to_text(links, gateway::LinkQuery{});
  EXPECT_NE(listing.find("links_tracked 3"), std::string::npos);
  EXPECT_NE(listing.find("link.0.0.frames 3"), std::string::npos);

  // Link telemetry config is create()-time only.
  gateway::GatewayConfig changed = cfg;
  changed.link.capacity *= 2;
  auto r = gw.reload(changed);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("link"), std::string::npos);
}

TEST(GatewayStatsPrimitives, LatencyHistogramQuantiles) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.record(100);   // bucket [64, 127]
  h.record(100000);
  h.record(200000);
  // The median interpolates inside the landing bucket instead of
  // reporting its upper edge: rank 50 of 98 in [64, 127] ≈ 96.
  EXPECT_GE(h.quantile_us(0.5), 64u);
  EXPECT_LE(h.quantile_us(0.5), 127u);
  EXPECT_EQ(h.quantile_us(0.5), 96u);
  EXPECT_GE(h.quantile_us(0.999), 100000u);
  EXPECT_EQ(h.max_us(), 200000u);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.sum_us(), 98u * 100 + 100000 + 200000);
}

// ------------------------------------------------ watchdog + self-heal

/// Shared skeleton for the two watchdog trip-wires: wedge one chosen
/// job inside the chunk hook (spinning until the watchdog's cancel
/// token fires, like a stuck DMA wait would), then assert the
/// self-healing contract — drain() returns, the wedged job surfaces a
/// typed kCancelled outcome, and every OTHER job's decode output is
/// bit-identical to the offline reference.
void watchdog_trip(const char* trace_path, bool via_deadline) {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  cfg.workers = 2;
  cfg.watchdog.poll_ms = 10;
  // Generous bounds: an honest job replays this trace in well under a
  // second, so only the deliberately wedged job can trip them.
  if (via_deadline) {
    cfg.watchdog.job_deadline_ms = 1500;
  } else {
    cfg.watchdog.heartbeat_timeout_ms = 1500;
  }
  const std::vector<FrameKey> expected = offline_reference(trace_path, cfg);
  ASSERT_FALSE(expected.empty());

  // The first job to reach its hook claims itself as the victim and
  // wedges until the watchdog's cancel token fires (job ids are not
  // known before enqueue, and jobs start running immediately; id 0 is
  // a real job, so the unclaimed sentinel must be out of band).
  constexpr std::uint64_t kNoVictim = ~0ull;
  std::atomic<std::uint64_t> victim{kNoVictim};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    std::uint64_t claimed = kNoVictim;
    if (!victim.compare_exchange_strong(claimed, info.job) &&
        claimed != info.job) {
      return;  // another job already wedged
    }
    while (!info.cancel->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  std::vector<std::uint64_t> job_ids;
  for (int j = 0; j < 4; ++j) {
    auto id = gw.enqueue_trace(trace_path);
    ASSERT_TRUE(id.ok()) << id.message();
    job_ids.push_back(id.value());
  }
  // Jobs were pre-assigned round-robin at enqueue, so the victim's
  // worker already holds later jobs — exactly the wedge drain() must
  // survive.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(gw.drain().ok());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_NE(victim.load(), kNoVictim) << "no job ever reached its hook";
  EXPECT_LT(wall, 30.0) << "drain must return promptly after the cancel";

  auto vs = gw.job_status(victim.load());
  ASSERT_TRUE(vs.ok()) << vs.message();
  EXPECT_EQ(vs.value().state, gateway::JobState::kCancelled);
  EXPECT_NE(vs.value().message.find(via_deadline ? "deadline" : "heartbeat"),
            std::string::npos)
      << vs.value().message;

  // Every other job decoded bit-identically to the offline pass.
  const std::vector<gateway::FrameRecord> frames = col.take();
  for (const std::uint64_t id : job_ids) {
    if (id == victim.load()) continue;
    auto st = gw.job_status(id);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().state, gateway::JobState::kDone) << "job " << id;
    std::vector<FrameKey> got;
    for (const gateway::FrameRecord& fr : frames) {
      if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "job " << id;
  }

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, 3u);
  EXPECT_EQ(st.jobs_failed, 1u) << "a cancelled job is not a done job";
  EXPECT_EQ(st.ingest.jobs_cancelled, 1u);
  if (via_deadline) {
    EXPECT_EQ(st.deadline_cancels, 1u);
    EXPECT_EQ(st.watchdog_cancels, 0u);
  } else {
    EXPECT_EQ(st.watchdog_cancels, 1u);
  }
}

TEST_F(GatewayFile, JobDeadlineCancelsWedgedJobAndDrainReturns) {
  watchdog_trip(path_, /*via_deadline=*/true);
}

TEST_F(GatewayFile, HeartbeatTimeoutCancelsWedgedJobAndDrainReturns) {
  watchdog_trip(path_, /*via_deadline=*/false);
}

TEST_F(GatewayFile, JobStatusReportsTypedOutcomes) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  // Hold job 1 at its first chunk until the main thread has deleted
  // the trace — job 2 then deterministically opens a missing file. The
  // main thread waits for the hook first, so job 1 has the trace open
  // before it disappears.
  std::atomic<bool> hook_entered{false};
  std::atomic<bool> file_removed{false};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    hook_entered.store(true);
    while (!file_removed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  auto first = gw.enqueue_trace(path_);
  ASSERT_TRUE(first.ok());
  auto second = gw.enqueue_trace(path_);
  ASSERT_TRUE(second.ok());
  // The second job was validated at enqueue; deleting the file before
  // its worker reaches it forces the mid-flight failure path.
  while (!hook_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::remove(path_);
  file_removed.store(true);
  ASSERT_TRUE(gw.drain().ok());

  auto s1 = gw.job_status(first.value());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1.value().state, gateway::JobState::kDone);
  auto s2 = gw.job_status(second.value());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value().state, gateway::JobState::kFailed);
  EXPECT_EQ(s2.value().ingest, stream::IngestError::kBadHeader);
  EXPECT_FALSE(s2.value().message.empty());

  // Never-issued ids are a typed error, not kPending.
  EXPECT_FALSE(gw.job_status(second.value() + 100).ok());
  EXPECT_STREQ(gateway::to_string(gateway::JobState::kCancelled), "cancelled");

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, 1u);
  EXPECT_EQ(st.jobs_failed, 1u);
}

TEST_F(GatewayFile, ReloadRejectedWhileDrainInProgress) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.throttle_us = 5000;  // stretch the replay so drain() is caught live
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());

  std::thread drainer([&] { EXPECT_TRUE(gw.drain().ok()); });
  // Give drain() time to register; the job itself runs for much longer.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto r = gw.reload(base_config());
  drainer.join();
  ASSERT_FALSE(r.ok()) << "reload during drain must be rejected, not racy";
  EXPECT_NE(r.message().find("drain"), std::string::npos) << r.message();

  // After the drain returns, reload works again.
  EXPECT_TRUE(gw.reload(base_config()).ok());
}

TEST_F(GatewayFile, ReloadRejectsWatchdogAndDegradationChanges) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  gateway::GatewayConfig wd = base_config();
  wd.watchdog.job_deadline_ms = 1000;
  auto r = gw.reload(wd);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("watchdog"), std::string::npos);

  gateway::GatewayConfig dg = base_config();
  dg.degradation.enabled = true;
  r = gw.reload(dg);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("degradation"), std::string::npos);
}

TEST_F(GatewayFile, SeededChaosStallsLeaveDecodeBitIdentical) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  const std::vector<FrameKey> expected = offline_reference(path_, cfg);

  fault::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 1234;
  chaos_cfg.stall_rate = 0.3;
  chaos_cfg.stall_min_ms = 1;
  chaos_cfg.stall_max_ms = 3;
  const fault::ChaosScheduler chaos(chaos_cfg);
  std::atomic<std::size_t> stalls{0};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    const std::uint64_t ms = chaos.stall_ms(info.worker, info.chunk_index);
    if (ms == 0) return;
    stalls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());
  std::vector<std::uint64_t> job_ids;
  for (int j = 0; j < 3; ++j) {
    auto id = gw.enqueue_trace(path_);
    ASSERT_TRUE(id.ok());
    job_ids.push_back(id.value());
  }
  ASSERT_TRUE(gw.drain().ok());
  EXPECT_GT(stalls.load(), 0u) << "the chaos schedule never fired";

  const std::vector<gateway::FrameRecord> frames = col.take();
  for (const std::uint64_t id : job_ids) {
    std::vector<FrameKey> got;
    for (const gateway::FrameRecord& fr : frames) {
      if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "job " << id;
  }
}

TEST_F(GatewayFile, HealthSnapshotCarriesTheDocumentedKeys) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  cfg.degradation.enabled = true;  // starts the supervisor thread
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());

  const gateway::GatewayHealth h = gw.health();
  EXPECT_EQ(h.degradation_level, 0u);
  EXPECT_EQ(h.degradation_name,
            gateway::to_string(gateway::DegradationLevel::kHealthy));
  ASSERT_EQ(h.workers.size(), 2u);
  for (const gateway::WorkerHealth& w : h.workers) {
    EXPECT_FALSE(w.busy);
  }
  const std::string text = h.to_text();
  for (const char* key :
       {"degradation_level", "degradation_name", "watchdog_cancels",
        "deadline_cancels", "jobs_cancelled", "rescan_backlog",
        "window_p99_us", "worker.0.busy", "worker.1.heartbeat_age_ms"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
  }

  // The stats text grew the self-healing counters too.
  const std::string stats_text = gw.stats().to_text();
  for (const char* key : {"watchdog_cancels", "deadline_cancels",
                          "degradation_level", "ingest.jobs_cancelled"}) {
    EXPECT_NE(stats_text.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace saiyan
