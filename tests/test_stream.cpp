// Streaming continuous-capture demodulation (src/stream/): ring
// carry-over, incremental preamble scanning, trace record/replay, and
// the tentpole equivalence property — streaming decode of a recorded
// multi-tag capture is bit-identical to batch decode of the
// individually framed packets, at any chunk size from one sample to
// the full trace, with zero heap allocations per chunk once warm.
//
// This file is its own test binary (ctest label `stream`) because it
// replaces the global allocation functions with counting versions for
// the zero-allocation test; the counter is disabled under ASan, which
// owns the allocator there.
#include "stream/streaming_demod.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "core/batch_demod.hpp"
#include "sim/capture.hpp"
#include "stream/sample_ring.hpp"
#include "stream/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SAIYAN_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAIYAN_ALLOC_COUNTER 0
#endif
#endif
#ifndef SAIYAN_ALLOC_COUNTER
#define SAIYAN_ALLOC_COUNTER 1
#endif

#if SAIYAN_ALLOC_COUNTER

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // SAIYAN_ALLOC_COUNTER

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

sim::CaptureConfig capture_cfg(std::size_t n_tags, std::size_t packets_per_tag,
                               std::size_t payload_symbols,
                               core::Mode mode = core::Mode::kSuper,
                               std::uint64_t seed = 42) {
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), mode);
  cfg.payload_symbols = payload_symbols;
  cfg.packets_per_tag = packets_per_tag;
  cfg.seed = seed;
  for (std::size_t t = 0; t < n_tags; ++t) {
    cfg.tag_rss_dbm.push_back(-55.0 - 3.0 * static_cast<double>(t));
  }
  return cfg;
}

stream::StreamConfig stream_cfg(const sim::CaptureConfig& cap,
                                std::uint64_t seed = 1) {
  stream::StreamConfig cfg;
  cfg.saiyan = cap.saiyan;
  cfg.payload_symbols = cap.payload_symbols;
  cfg.seed = seed;
  return cfg;
}

/// Push a capture in fixed-size chunks and finish.
void run_stream(stream::StreamingDemodulator& demod,
                std::span<const dsp::Complex> samples, std::size_t chunk) {
  while (!samples.empty()) {
    const std::size_t take = std::min(chunk, samples.size());
    demod.push(samples.first(take));
    samples = samples.subspan(take);
  }
  demod.finish();
}

// ------------------------------------------------------------ SampleRing

TEST(SampleRing, ViewsAreContiguousAcrossWrap) {
  stream::SampleRing<double> ring(8);
  std::vector<double> data(20);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  ring.append(std::span<const double>(data).first(5));   // [0, 5)
  EXPECT_EQ(ring.begin(), 0u);
  EXPECT_EQ(ring.end(), 5u);
  auto v = ring.view(1, 3);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
  ring.append(std::span<const double>(data).subspan(5, 7));  // [0, 12), wraps
  EXPECT_EQ(ring.end(), 12u);
  EXPECT_EQ(ring.begin(), 4u);
  v = ring.view(4, 8);  // full retained range, must stitch
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], static_cast<double>(4 + i));
  EXPECT_THROW(ring.view(3, 2), std::out_of_range);   // fell off the tail
  EXPECT_THROW(ring.view(10, 4), std::out_of_range);  // beyond the head
}

TEST(SampleRing, AppendLargerThanCapacityThrows) {
  stream::SampleRing<double> ring(4);
  std::vector<double> data(5, 1.0);
  EXPECT_THROW(ring.append(std::span<const double>(data)), std::invalid_argument);
}

// ------------------------------------------------------------ trace I/O

class TraceFile : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test *and* per process: gtest_discover_tests runs
    // each TEST_F as its own ctest entry, and parallel ctest puts them
    // all in the same working directory.
    std::snprintf(path_, sizeof(path_), "saiyan_trace_%s_%d.sytrc",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  static_cast<int>(::getpid()));
  }
  void TearDown() override { std::remove(path_); }
  char path_[128];
};

TEST_F(TraceFile, RoundTripIsBitExact) {
  const sim::CaptureConfig cfg = capture_cfg(2, 2, 8);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_, 10000);  // odd chunking on purpose

  // Result-returning open — the public-boundary convention.
  auto opened = stream::TraceReader::open(path_);
  ASSERT_TRUE(opened.ok()) << opened.message();
  stream::TraceReader reader = std::move(opened).value();
  EXPECT_EQ(reader.meta().phy.spreading_factor, cfg.saiyan.phy.spreading_factor);
  EXPECT_DOUBLE_EQ(reader.meta().phy.sample_rate_hz, cfg.saiyan.phy.sample_rate_hz);
  EXPECT_DOUBLE_EQ(reader.meta().phy.bandwidth_hz, cfg.saiyan.phy.bandwidth_hz);
  EXPECT_EQ(reader.meta().mode, cfg.saiyan.mode);
  EXPECT_EQ(reader.meta().payload_symbols, cfg.payload_symbols);
  EXPECT_EQ(reader.meta().total_samples, cap.samples.size());
  ASSERT_EQ(reader.markers().size(), cap.markers.size());
  for (std::size_t i = 0; i < cap.markers.size(); ++i) {
    EXPECT_EQ(reader.markers()[i].sample_offset, cap.markers[i].sample_offset);
    EXPECT_EQ(reader.markers()[i].tag_id, cap.markers[i].tag_id);
    EXPECT_EQ(reader.markers()[i].symbols, cap.markers[i].symbols);
  }

  dsp::Signal chunk;
  dsp::Signal all;
  stream::ChunkStatus st;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(st, stream::ChunkStatus::kEof);
  ASSERT_EQ(all.size(), cap.samples.size());
  EXPECT_EQ(0, std::memcmp(all.data(), cap.samples.data(),
                           all.size() * sizeof(dsp::Complex)));
}

TEST_F(TraceFile, CorruptChunkIsRejectedCleanly) {
  const sim::CaptureConfig cfg = capture_cfg(1, 1, 4);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_, 4096);

  // Flip one payload byte in the second chunk.
  std::FILE* f = std::fopen(path_, "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -64, SEEK_END);
  int byte = std::fgetc(f);
  std::fseek(f, -64, SEEK_END);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  stream::TraceReader reader = stream::TraceReader::open(path_).value();
  dsp::Signal chunk;
  stream::ChunkStatus st = stream::ChunkStatus::kOk;
  std::size_t ok_chunks = 0;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) ++ok_chunks;
  EXPECT_EQ(st, stream::ChunkStatus::kCorrupt);
  EXPECT_LT(ok_chunks, (cap.samples.size() + 4095) / 4096);
  // The reader stays failed instead of resyncing into garbage.
  EXPECT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kCorrupt);
  EXPECT_TRUE(chunk.empty());
}

TEST_F(TraceFile, TruncatedFileIsRejectedCleanly) {
  const sim::CaptureConfig cfg = capture_cfg(1, 1, 4);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_, 4096);
  // Chop the file mid-chunk.
  std::FILE* f = std::fopen(path_, "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, ::truncate(path_, size - 100));

  stream::TraceReader reader = stream::TraceReader::open(path_).value();
  dsp::Signal chunk;
  stream::ChunkStatus st;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
  }
  EXPECT_EQ(st, stream::ChunkStatus::kCorrupt);
}

TEST_F(TraceFile, TruncationAtExactChunkBoundaryIsDetected) {
  // Chopping whole trailing chunks leaves every remaining chunk
  // CRC-clean; the header's total sample count is what catches it.
  const sim::CaptureConfig cfg = capture_cfg(1, 1, 4);
  const sim::Capture cap = sim::generate_capture(cfg);
  const std::size_t chunk_samples = 4096;
  sim::write_capture(cap, cfg, path_, chunk_samples);
  const std::size_t last_len = cap.samples.size() % chunk_samples == 0
                                   ? chunk_samples
                                   : cap.samples.size() % chunk_samples;
  std::FILE* f = std::fopen(path_, "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, ::truncate(path_, size - static_cast<long>(
                                             8 + last_len * sizeof(dsp::Complex))));

  stream::TraceReader reader = stream::TraceReader::open(path_).value();
  dsp::Signal chunk;
  stream::ChunkStatus st;
  std::size_t got = 0;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
    got += chunk.size();
  }
  EXPECT_EQ(st, stream::ChunkStatus::kCorrupt);
  EXPECT_EQ(got, cap.samples.size() - last_len);
}

TEST_F(TraceFile, FloatV2HalvesTheBytesAndRoundTripsToFloatPrecision) {
  const sim::CaptureConfig cfg = capture_cfg(2, 2, 8);
  const sim::Capture cap = sim::generate_capture(cfg);
  char path_v1[140];
  std::snprintf(path_v1, sizeof(path_v1), "%s.v1", path_);
  sim::write_capture(cap, cfg, path_v1, 10000, /*float32=*/false);
  sim::write_capture(cap, cfg, path_, 10000, /*float32=*/true);

  // Half the chunk payload bytes (headers/markers are shared).
  const auto file_size = [](const char* p) {
    std::FILE* f = std::fopen(p, "rb");
    std::fseek(f, 0, SEEK_END);
    const long s = std::ftell(f);
    std::fclose(f);
    return s;
  };
  const long v1 = file_size(path_v1);
  const long v2 = file_size(path_);
  std::remove(path_v1);
  const long payload_v1 =
      static_cast<long>(cap.samples.size() * sizeof(dsp::Complex));
  EXPECT_EQ(v1 - payload_v1, v2 - payload_v1 / 2);

  stream::TraceReader reader = stream::TraceReader::open(path_).value();
  EXPECT_TRUE(reader.meta().float32_samples);
  EXPECT_EQ(reader.meta().total_samples, cap.samples.size());
  dsp::Signal chunk;
  dsp::Signal all;
  stream::ChunkStatus st;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(st, stream::ChunkStatus::kEof);
  ASSERT_EQ(all.size(), cap.samples.size());
  // Tolerance-equivalent, not bit-exact: float32 keeps ~7 significant
  // digits of the nanowatt-scale samples.
  double max_rel = 0.0;
  double scale = 0.0;
  for (const dsp::Complex& v : cap.samples) {
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    max_rel = std::max(max_rel, std::abs(all[i] - cap.samples[i]) / scale);
  }
  EXPECT_GT(max_rel, 0.0) << "float32 must actually quantize";
  EXPECT_LT(max_rel, 1e-6);
}

TEST_F(TraceFile, FloatV2ReplayMatchesMemoryDecodeWithinTolerance) {
  // The v2 replay-equivalence property: same packets at the same
  // offsets, and a symbol stream whose disagreement with the float64
  // decode is bounded — quantization may flip a borderline symbol, so
  // the test is tolerance-based where the v1 test is bit-exact.
  const sim::CaptureConfig cfg = capture_cfg(3, 4, 8);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_, 20000, /*float32=*/true);
  const sim::ReplayStats v2 = sim::replay_trace(path_);

  stream::StreamingDemodulator demod(stream_cfg(cfg));
  run_stream(demod, cap.samples, 16384);
  const sim::ReplayStats mem = sim::score_replay(
      demod, cap.markers, cfg.saiyan.phy.samples_per_symbol() / 2);

  EXPECT_EQ(v2.markers, mem.markers);
  EXPECT_EQ(v2.matched, mem.matched);
  EXPECT_EQ(v2.false_detections, 0u);
  EXPECT_EQ(v2.corrupt_chunks, 0u);
  EXPECT_EQ(v2.samples, cap.samples.size());
  const std::size_t diff = v2.symbol_errors > mem.symbol_errors
                               ? v2.symbol_errors - mem.symbol_errors
                               : mem.symbol_errors - v2.symbol_errors;
  EXPECT_LE(diff, v2.symbols / 100) << "v2 decode drifted beyond tolerance";
}

TEST_F(TraceFile, FloatV2CorruptChunkIsStillRejected) {
  const sim::CaptureConfig cfg = capture_cfg(1, 1, 4);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_, 4096, /*float32=*/true);
  std::FILE* f = std::fopen(path_, "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -64, SEEK_END);
  int byte = std::fgetc(f);
  std::fseek(f, -64, SEEK_END);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  stream::TraceReader reader = stream::TraceReader::open(path_).value();
  dsp::Signal chunk;
  stream::ChunkStatus st;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
  }
  EXPECT_EQ(st, stream::ChunkStatus::kCorrupt);
}

TEST(Trace, BadMagicIsRejected) {
  const char* path = "saiyan_trace_bad_magic.sytrc";
  std::FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  auto r = stream::TraceReader::open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().ingest, stream::IngestError::kBadMagic);
  // replay_trace keeps its documented throw, with open()'s message.
  try {
    (void)sim::replay_trace(path);
    ADD_FAILURE() << "replay_trace accepted a file with a bad magic";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()), r.message());
  }
  std::remove(path);
}

// ------------------------------------- the tentpole equivalence property

// 50-packet multi-tag capture shared by the equivalence tests.
class StreamEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new sim::CaptureConfig(capture_cfg(5, 10, 16));
    cap_ = new sim::Capture(sim::generate_capture(*cfg_));
  }
  static void TearDownTestSuite() {
    delete cap_;
    delete cfg_;
    cap_ = nullptr;
    cfg_ = nullptr;
  }
  static sim::CaptureConfig* cfg_;
  static sim::Capture* cap_;
};

sim::CaptureConfig* StreamEquivalence::cfg_ = nullptr;
sim::Capture* StreamEquivalence::cap_ = nullptr;

TEST_F(StreamEquivalence, FindsEveryPacketAtItsTrueOffset) {
  stream::StreamingDemodulator demod(stream_cfg(*cfg_));
  run_stream(demod, cap_->samples, cap_->samples.size());
  ASSERT_EQ(demod.packets().size(), cap_->markers.size());
  for (std::size_t i = 0; i < cap_->markers.size(); ++i) {
    const std::int64_t err =
        static_cast<std::int64_t>(demod.packets()[i].packet_start) -
        static_cast<std::int64_t>(cap_->markers[i].sample_offset);
    EXPECT_LE(std::llabs(err), 2) << "packet " << i;
    EXPECT_GE(demod.packets()[i].score, demod.config().min_score);
  }
  EXPECT_EQ(demod.truncated_packets(), 0u);
}

TEST_F(StreamEquivalence, StreamingIsBitIdenticalToBatchFramedDecode) {
  // The acceptance property: streamed decode == batch decode of the
  // individually framed packets — same bits, same error counts.
  stream::StreamingDemodulator demod(stream_cfg(*cfg_));
  run_stream(demod, cap_->samples, 8192);
  ASSERT_EQ(demod.packets().size(), cap_->markers.size());

  core::BatchDemodulator batch(cfg_->saiyan);
  std::size_t stream_errors = 0;
  std::size_t batch_errors = 0;
  for (std::size_t i = 0; i < demod.packets().size(); ++i) {
    const stream::DecodedPacket& p = demod.packets()[i];
    const std::span<const dsp::Complex> frame =
        std::span<const dsp::Complex>(cap_->samples)
            .subspan(static_cast<std::size_t>(p.packet_start),
                     demod.frame_samples());
    dsp::Rng rng(dsp::derive_stream_seed(demod.config().seed, i));
    const std::span<const std::uint32_t> want = batch.decode_aligned(
        frame, demod.preamble_samples(), cfg_->payload_symbols, rng);
    const std::span<const std::uint32_t> got = demod.symbols(p);
    ASSERT_EQ(want.size(), got.size()) << "packet " << i;
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(want[s], got[s]) << "packet " << i << " symbol " << s;
    }
    // Identical error counts against the ground truth.
    const std::vector<std::uint32_t>& tx = cap_->markers[i].symbols;
    for (std::size_t s = 0; s < tx.size(); ++s) {
      stream_errors += (s >= got.size() || got[s] != tx[s]) ? 1 : 0;
      batch_errors += (s >= want.size() || want[s] != tx[s]) ? 1 : 0;
    }
    EXPECT_DOUBLE_EQ(demod.batch().workspace().preamble_score, 1.0);
  }
  EXPECT_EQ(stream_errors, batch_errors);
}

TEST_F(StreamEquivalence, ChunkSizeDoesNotChangeAnyBit) {
  // One sample at a time up to the whole trace in one push.
  stream::StreamingDemodulator reference(stream_cfg(*cfg_));
  run_stream(reference, cap_->samples, cap_->samples.size());
  ASSERT_EQ(reference.packets().size(), cap_->markers.size());

  stream::StreamingDemodulator demod(stream_cfg(*cfg_));
  for (std::size_t chunk : {std::size_t{1}, std::size_t{997},
                            std::size_t{8192}, std::size_t{65536}}) {
    demod.reset();
    demod.clear_packets();
    run_stream(demod, cap_->samples, chunk);
    ASSERT_EQ(demod.packets().size(), reference.packets().size())
        << "chunk " << chunk;
    for (std::size_t i = 0; i < reference.packets().size(); ++i) {
      const stream::DecodedPacket& a = reference.packets()[i];
      const stream::DecodedPacket& b = demod.packets()[i];
      EXPECT_EQ(a.packet_start, b.packet_start) << "chunk " << chunk;
      EXPECT_EQ(a.payload_start, b.payload_start) << "chunk " << chunk;
      EXPECT_DOUBLE_EQ(a.score, b.score) << "chunk " << chunk;
      const auto sa = reference.symbols(a);
      const auto sb = demod.symbols(b);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t s = 0; s < sa.size(); ++s) {
        EXPECT_EQ(sa[s], sb[s]) << "chunk " << chunk << " packet " << i;
      }
    }
  }
}

TEST_F(StreamEquivalence, ReplayFromTraceFileMatchesMemory) {
  char path[64];
  std::snprintf(path, sizeof(path), "saiyan_stream_replay_%d.sytrc",
                ::testing::UnitTest::GetInstance()->random_seed());
  sim::write_capture(*cap_, *cfg_, path, 20000);
  const sim::ReplayStats stats = sim::replay_trace(path);
  std::remove(path);
  EXPECT_EQ(stats.markers, cap_->markers.size());
  EXPECT_EQ(stats.matched, cap_->markers.size());
  EXPECT_EQ(stats.false_detections, 0u);
  EXPECT_EQ(stats.corrupt_chunks, 0u);
  EXPECT_EQ(stats.samples, cap_->samples.size());

  // And the in-memory streaming run counts the same symbol errors.
  stream::StreamingDemodulator demod(stream_cfg(*cfg_));
  run_stream(demod, cap_->samples, 16384);
  const sim::ReplayStats mem = sim::score_replay(
      demod, cap_->markers, cfg_->saiyan.phy.samples_per_symbol() / 2);
  EXPECT_EQ(stats.symbol_errors, mem.symbol_errors);
  EXPECT_EQ(stats.symbols, mem.symbols);
}

// ------------------------------------------------------- edge cases

TEST(StreamEdgeCases, PreambleStraddlingAChunkBoundaryAtEveryOffset) {
  // One packet; the push boundary sweeps across every offset of the
  // symbol that contains the middle of its preamble. Every split must
  // reproduce the reference decode bit for bit.
  const sim::CaptureConfig cfg = capture_cfg(1, 1, 4, core::Mode::kSuper, 7);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.markers.size(), 1u);

  stream::StreamingDemodulator reference(stream_cfg(cfg));
  run_stream(reference, cap.samples, cap.samples.size());
  ASSERT_EQ(reference.packets().size(), 1u);
  const std::vector<std::uint32_t> want(
      reference.symbols(reference.packets()[0]).begin(),
      reference.symbols(reference.packets()[0]).end());
  const std::uint64_t want_start = reference.packets()[0].packet_start;

  const std::size_t spsym = cfg.saiyan.phy.samples_per_symbol();
  const std::size_t mid =
      static_cast<std::size_t>(cap.markers[0].sample_offset) +
      reference.preamble_samples() / 2;
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  for (std::size_t off = 0; off < spsym; ++off) {
    demod.reset();
    demod.clear_packets();
    const std::span<const dsp::Complex> all(cap.samples);
    demod.push(all.first(mid + off));
    demod.push(all.subspan(mid + off));
    demod.finish();
    ASSERT_EQ(demod.packets().size(), 1u) << "offset " << off;
    EXPECT_EQ(demod.packets()[0].packet_start, want_start) << "offset " << off;
    const auto got = demod.symbols(demod.packets()[0]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(got[s], want[s]) << "offset " << off << " symbol " << s;
    }
  }
}

TEST(StreamEdgeCases, BackToBackPacketsWithZeroGap) {
  sim::CaptureConfig cfg = capture_cfg(1, 3, 8, core::Mode::kSuper, 11);
  cfg.min_gap_symbols = 0.0;
  cfg.max_gap_symbols = 0.0;
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.markers.size(), 3u);
  // Zero gaps: each packet begins exactly where the previous ended.
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  ASSERT_EQ(cap.markers[1].sample_offset,
            cap.markers[0].sample_offset + demod.frame_samples());

  run_stream(demod, cap.samples, 4096);
  const sim::ReplayStats stats = sim::score_replay(
      demod, cap.markers, cfg.saiyan.phy.samples_per_symbol() / 2);
  EXPECT_EQ(stats.matched, 3u);
  EXPECT_EQ(stats.false_detections, 0u);
  EXPECT_EQ(stats.ser(), 0.0);
}

TEST(StreamEdgeCases, TruncatedFinalPacketIsDroppedNotDecoded) {
  const sim::CaptureConfig cfg = capture_cfg(2, 3, 8, core::Mode::kSuper, 13);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.markers.size(), 6u);
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  // Cut the capture one symbol before the last frame completes.
  const std::size_t cut =
      static_cast<std::size_t>(cap.markers.back().sample_offset) +
      demod.frame_samples() - cfg.saiyan.phy.samples_per_symbol();
  run_stream(demod, std::span<const dsp::Complex>(cap.samples).first(cut),
             4096);
  EXPECT_EQ(demod.packets().size(), 5u);
  EXPECT_EQ(demod.truncated_packets(), 1u);
  const sim::ReplayStats stats = sim::score_replay(
      demod, cap.markers, cfg.saiyan.phy.samples_per_symbol() / 2);
  EXPECT_EQ(stats.matched, 5u);
  EXPECT_EQ(stats.false_detections, 0u);
}

TEST(StreamEdgeCases, RingWrapsAroundMidPacketWithoutCorruption) {
  // Long idle gaps force the RF ring to wrap many times, including
  // mid-packet; every packet must still decode cleanly.
  sim::CaptureConfig cfg = capture_cfg(1, 4, 8, core::Mode::kSuper, 17);
  cfg.min_gap_symbols = 40.0;
  cfg.max_gap_symbols = 60.0;
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  ASSERT_LT(demod.frame_samples() + 3 * demod.block_samples(),
            cap.samples.size())
      << "capture must exceed ring capacity for the wrap to happen";
  run_stream(demod, cap.samples, 2048);
  const sim::ReplayStats stats = sim::score_replay(
      demod, cap.markers, cfg.saiyan.phy.samples_per_symbol() / 2);
  EXPECT_EQ(stats.matched, 4u);
  EXPECT_EQ(stats.ser(), 0.0);
}

class StreamModes : public ::testing::TestWithParam<core::Mode> {};

TEST_P(StreamModes, DecodesCleanCaptureInEveryMode) {
  const sim::CaptureConfig cfg = capture_cfg(2, 3, 8, GetParam(), 19);
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  run_stream(demod, cap.samples, 16384);
  const sim::ReplayStats stats = sim::score_replay(
      demod, cap.markers, cfg.saiyan.phy.samples_per_symbol() / 2);
  EXPECT_EQ(stats.matched, 6u) << core::mode_name(GetParam());
  EXPECT_EQ(stats.false_detections, 0u);
  EXPECT_LE(stats.ser(), 0.02) << core::mode_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Modes, StreamModes,
                         ::testing::Values(core::Mode::kVanilla,
                                           core::Mode::kFrequencyShifting,
                                           core::Mode::kSuper),
                         [](const auto& info) {
                           return std::string(core::mode_name(info.param)) ==
                                          "freq-shifting"
                                      ? "freq_shifting"
                                      : core::mode_name(info.param);
                         });

#if SAIYAN_ALLOC_COUNTER

TEST(StreamAllocation, PushIsAllocationFreeOnceWarm) {
  // The tentpole zero-allocation property: once the rings, scan
  // workspace, correlator workspaces and decode workspace are warm (a
  // few packets in, including at least one wrapped frame), pushing
  // further chunks — detection and decode included — never touches
  // the allocator as long as the caller drains packets.
  const sim::CaptureConfig cfg = capture_cfg(2, 6, 8, core::Mode::kSuper, 23);
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamingDemodulator demod(stream_cfg(cfg));
  ASSERT_GT(cap.samples.size(),
            2 * (demod.frame_samples() + 2 * demod.block_samples()))
      << "warm phase must wrap the ring";

  const std::span<const dsp::Complex> all(cap.samples);
  const std::size_t warm = cap.samples.size() / 2;
  std::size_t pos = 0;
  while (pos < warm) {
    const std::size_t take = std::min<std::size_t>(4096, warm - pos);
    demod.push(all.subspan(pos, take));
    pos += take;
  }
  ASSERT_GE(demod.packets().size(), 3u) << "warm phase must decode packets";
  demod.clear_packets();

  g_allocations.store(0);
  g_counting.store(true);
  while (pos < cap.samples.size()) {
    const std::size_t take =
        std::min<std::size_t>(4096, cap.samples.size() - pos);
    demod.push(all.subspan(pos, take));
    pos += take;
    demod.clear_packets();
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "streaming push allocated in the steady state";
}

#endif  // SAIYAN_ALLOC_COUNTER

}  // namespace
}  // namespace saiyan
