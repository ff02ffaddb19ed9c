// Impairment-tolerant ingest: the fault matrix.
//
// Each impairment class the fault subsystem can inject is driven
// through the full ingest path (TraceReader → StreamingDemodulator →
// score against ground truth) and must land in exactly one of two
// outcomes:
//
//   * recovery — the replay resynchronizes and every frame outside
//     the damaged region decodes bit-identically to the clean run
//     (offset-keyed decode seeds make the comparison exact), or
//   * detection — the damage is counted in the matching IngestStats
//     counter / error class.
//
// Silent corruption — wrong symbols with clean stats — is the one
// forbidden outcome, with a documented exception: record *reordering*
// preserves both CRCs and the total sample count, so it is only
// visible as symbol errors or missed markers downstream (asserted
// here as such).
//
// Also covered: truncation at every byte offset (v1 and v2), the
// deterministic fault injector itself, SIC load shedding under
// backlog, and TraceWriter's nothrow close-failure reporting.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "lora/modulator.hpp"
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

constexpr std::size_t kPayload = 8;
constexpr std::size_t kChunkSamples = 2048;

/// Two well-separated frames with a long idle gap between them — the
/// controlled canvas for surgical corruption: damage can be placed
/// entirely inside the idle gap (recovery must be bit-identical) or
/// inside one frame (only that frame may degrade).
const sim::CaptureConfig& two_frame_cfg() {
  static const sim::CaptureConfig cfg = [] {
    sim::CaptureConfig c;
    c.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
    c.tag_rss_dbm = {-40.0, -45.0};
    c.payload_symbols = kPayload;
    c.seed = 42;
    c.offsets = {1000, 60000};
    return c;
  }();
  return cfg;
}

const sim::Capture& two_frame_capture() {
  static const sim::Capture cap = sim::generate_capture(two_frame_cfg());
  return cap;
}

sim::ReplayConfig recover_cfg() {
  sim::ReplayConfig rc;
  rc.resync = true;
  rc.stream.seed_by_offset = true;
  return rc;
}

/// Sample offset of each chunk record in a trace (chunk k starts at
/// the sum of the earlier chunks' sample counts).
std::vector<std::uint64_t> chunk_sample_starts(const fault::TraceLayout& lay) {
  std::vector<std::uint64_t> starts;
  starts.reserve(lay.chunks.size());
  std::uint64_t acc = 0;
  for (const fault::ChunkRecordInfo& c : lay.chunks) {
    starts.push_back(acc);
    acc += c.n_samples;
  }
  return starts;
}

/// Index of a chunk whose samples lie entirely inside [lo, hi).
std::size_t chunk_inside(const fault::TraceLayout& lay, std::uint64_t lo,
                         std::uint64_t hi) {
  const std::vector<std::uint64_t> starts = chunk_sample_starts(lay);
  for (std::size_t k = 0; k < lay.chunks.size(); ++k) {
    if (starts[k] >= lo && starts[k] + lay.chunks[k].n_samples <= hi) return k;
  }
  ADD_FAILURE() << "no chunk inside [" << lo << ", " << hi << ")";
  return 0;
}

std::uint64_t frame_samples() {
  static const std::uint64_t n =
      lora::Modulator(phy()).layout(kPayload).total_samples;
  return n;
}

class FaultFile : public ::testing::Test {
 protected:
  void SetUp() override {
    std::snprintf(path_, sizeof(path_), "saiyan_fault_%s_%d.sytrc",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  static_cast<int>(::getpid()));
  }
  void TearDown() override { std::remove(path_); }

  /// Write the two-frame capture, apply `mutate` to its bytes, write
  /// the result back to path_, and return the trace layout of the
  /// *clean* bytes (for locating chunks).
  template <typename Fn>
  fault::TraceLayout prepare(Fn&& mutate) {
    sim::write_capture(two_frame_capture(), two_frame_cfg(), path_,
                       kChunkSamples);
    const std::string clean = fault::read_file(path_);
    fault::write_file(path_, mutate(clean));
    return fault::parse_trace_layout(clean);
  }

  char path_[128];
};

// ------------------------------------------------------ IngestStats

TEST(IngestStats, CountersMergeAndNames) {
  stream::IngestStats a;
  EXPECT_TRUE(a.clean());
  a.count(stream::IngestError::kChunkCrc);
  a.count(stream::IngestError::kChunkCrc);
  a.count(stream::IngestError::kTotalMismatch);
  EXPECT_EQ(a.error_count(stream::IngestError::kChunkCrc), 2u);
  EXPECT_EQ(a.total_errors(), 3u);
  EXPECT_EQ(a.last_error, stream::IngestError::kTotalMismatch);
  EXPECT_FALSE(a.clean());

  stream::IngestStats b;
  b.resyncs = 1;
  b.count(stream::IngestError::kChunkHeader);
  a.merge(b);
  EXPECT_EQ(a.resyncs, 1u);
  EXPECT_EQ(a.total_errors(), 4u);
  EXPECT_EQ(a.last_error, stream::IngestError::kChunkHeader);

  for (std::size_t e = 0;
       e < static_cast<std::size_t>(stream::IngestError::kCount); ++e) {
    const char* name = to_string(static_cast<stream::IngestError>(e));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "invalid");
  }
}

// ------------------------------------------- reader-level recovery

TEST_F(FaultFile, StrictReaderWedgesAtFirstCorruptChunk) {
  const fault::TraceLayout lay = prepare([](const std::string& clean) {
    return fault::flip_chunk_bit(clean, 3);
  });
  ASSERT_GT(lay.chunks.size(), 4u);
  stream::TraceReader reader =
      stream::TraceReader::open(path_, /*recover=*/false).value();
  dsp::Signal chunk;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kOk);
  }
  EXPECT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kCorrupt);
  // Wedged: the failed state is sticky.
  EXPECT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kCorrupt);
  EXPECT_EQ(reader.stats().chunks_ok, 3u);
  EXPECT_EQ(reader.stats().chunks_corrupt, 1u);
  EXPECT_EQ(reader.stats().error_count(stream::IngestError::kChunkCrc), 1u);
}

TEST_F(FaultFile, ResyncSkipsExactlyTheCorruptRecord) {
  const std::size_t target = 3;
  const fault::TraceLayout lay = prepare([&](const std::string& clean) {
    return fault::flip_chunk_bit(clean, target);
  });
  // Reference: the chunk the resync should deliver next.
  sim::write_capture(two_frame_capture(), two_frame_cfg(), path_,
                     kChunkSamples);
  stream::TraceReader clean_reader = stream::TraceReader::open(path_).value();
  dsp::Signal expect_chunk;
  for (std::size_t i = 0; i <= target + 1; ++i) {
    ASSERT_EQ(clean_reader.next_chunk(expect_chunk),
              stream::ChunkStatus::kOk);
  }
  const fault::TraceLayout relay = prepare([&](const std::string& clean) {
    return fault::flip_chunk_bit(clean, target);
  });
  ASSERT_EQ(relay.chunks.size(), lay.chunks.size());

  stream::TraceReader reader =
      stream::TraceReader::open(path_, /*recover=*/true).value();
  dsp::Signal chunk;
  for (std::size_t i = 0; i < target; ++i) {
    ASSERT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kOk);
  }
  ASSERT_EQ(reader.next_chunk(chunk), stream::ChunkStatus::kResync);
  // The skip covered exactly one record whose declared length was
  // intact, so the loss estimate is exact — and the delivered chunk is
  // the next clean record, bit for bit.
  EXPECT_EQ(reader.last_gap_samples(), kChunkSamples);
  ASSERT_EQ(chunk.size(), expect_chunk.size());
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), expect_chunk.begin()));
  // The gap belongs to the call that found it: the next clean chunk
  // reports none, so a consumer can note_gap() after every call.
  stream::ChunkStatus st;
  while ((st = reader.next_chunk(chunk)) == stream::ChunkStatus::kOk) {
    EXPECT_EQ(reader.last_gap_samples(), 0u);
  }
  EXPECT_EQ(st, stream::ChunkStatus::kEof);
  EXPECT_EQ(reader.last_gap_samples(), 0u);
  EXPECT_EQ(reader.stats().resyncs, 1u);
  EXPECT_EQ(reader.stats().samples_lost, kChunkSamples);
  EXPECT_EQ(reader.stats().chunks_ok, lay.chunks.size() - 1);
  // The lost samples show up in the EOF cross-check, by design.
  EXPECT_EQ(reader.stats().error_count(stream::IngestError::kTotalMismatch),
            1u);

  // A corrupt tail leaves nothing to resync to: the EOF that discards
  // it reports the tail, and the call after it reports nothing.
  const fault::TraceLayout tail_lay = prepare([&](const std::string& clean) {
    return fault::flip_chunk_bit(clean, lay.chunks.size() - 1);
  });
  stream::TraceReader tail_reader =
      stream::TraceReader::open(path_, /*recover=*/true).value();
  for (std::size_t i = 0; i + 1 < tail_lay.chunks.size(); ++i) {
    ASSERT_EQ(tail_reader.next_chunk(chunk), stream::ChunkStatus::kOk);
  }
  ASSERT_EQ(tail_reader.next_chunk(chunk), stream::ChunkStatus::kEof);
  EXPECT_EQ(tail_reader.last_gap_samples(), tail_lay.chunks.back().n_samples);
  ASSERT_EQ(tail_reader.next_chunk(chunk), stream::ChunkStatus::kEof);
  EXPECT_EQ(tail_reader.last_gap_samples(), 0u);
}

TEST_F(FaultFile, HostileChunkLengthRejectsWithoutAbsurdAllocation) {
  prepare([](const std::string& clean) {
    // 0x40000000 samples would be a 16 GiB allocation if trusted.
    return fault::corrupt_chunk_length(clean, 3);
  });
  stream::TraceReader reader =
      stream::TraceReader::open(path_, /*recover=*/true).value();
  dsp::Signal chunk;
  stream::ChunkStatus st;
  bool resynced = false;
  while ((st = reader.next_chunk(chunk)) != stream::ChunkStatus::kEof) {
    ASSERT_NE(st, stream::ChunkStatus::kCorrupt);
    resynced |= st == stream::ChunkStatus::kResync;
  }
  EXPECT_TRUE(resynced);
  EXPECT_EQ(reader.stats().error_count(stream::IngestError::kChunkHeader), 1u);
  // Without the declared length the estimate falls back to
  // bytes/sample_bytes — the record's 8 header bytes round down, so it
  // still lands on the exact sample count here.
  EXPECT_EQ(reader.stats().samples_lost, kChunkSamples);
}

// ----------------------------------- truncation at every byte offset

void truncation_sweep(bool float32) {
  // A deliberately tiny trace so the every-byte sweep stays fast: the
  // sweep is about parser state machines, not demodulation.
  char path[128];
  std::snprintf(path, sizeof(path), "saiyan_fault_truncsweep_%d_%d.sytrc",
                static_cast<int>(float32), static_cast<int>(::getpid()));
  {
    stream::TraceMeta meta;
    meta.phy = phy();
    meta.payload_symbols = kPayload;
    meta.float32_samples = float32;
    std::vector<stream::TraceMarker> markers(1);
    markers[0].sample_offset = 7;
    markers[0].tag_id = 1;
    markers[0].symbols = {1, 2, 3};
    stream::TraceWriter writer(path, meta, markers);
    dsp::Signal samples(50);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      samples[i] = dsp::Complex(static_cast<double>(i), -1.0);
    }
    for (int c = 0; c < 3; ++c) writer.write_chunk(samples);
    writer.close();
  }
  const std::string bytes = fault::read_file(path);
  std::remove(path);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string_view prefix(bytes.data(), len);
    for (const bool recover : {false, true}) {
      auto opened = stream::TraceReader::from_bytes(prefix, recover);
      // Structured header rejection — fine anywhere in the sweep.
      if (!opened.ok()) continue;
      stream::TraceReader reader = std::move(opened).value();
      int iterations = 0;
      dsp::Signal chunk;
      stream::ChunkStatus st;
      do {
        st = reader.next_chunk(chunk);
        ASSERT_LT(++iterations, 64)
            << "reader failed to terminate at truncation " << len;
      } while (st == stream::ChunkStatus::kOk ||
               st == stream::ChunkStatus::kResync);
      if (st == stream::ChunkStatus::kCorrupt) {
        EXPECT_FALSE(recover) << "recover mode must never return kCorrupt";
        EXPECT_GT(reader.stats().total_errors(), 0u);
      }
    }
  }
}

TEST(TruncationSweep, EveryByteOffsetV1) { truncation_sweep(false); }
TEST(TruncationSweep, EveryByteOffsetV2) { truncation_sweep(true); }

// ------------------------------------------------- the fault matrix

TEST_F(FaultFile, CleanBaselineDecodesEverything) {
  prepare([](const std::string& clean) { return clean; });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  EXPECT_EQ(s.matched, 2u);
  EXPECT_EQ(s.symbol_errors, 0u);
  EXPECT_TRUE(s.ingest.clean());
}

TEST_F(FaultFile, BitFlipInIdleGapRecoversBitIdentical) {
  const fault::TraceLayout lay = prepare([&](const std::string& clean) {
    const fault::TraceLayout l = fault::parse_trace_layout(clean);
    const std::size_t idle = chunk_inside(
        l, 1000 + frame_samples() + 1024, 60000 - 1024);
    return fault::flip_chunk_bit(clean, idle, /*bit=*/5);
  });
  ASSERT_GT(lay.chunks.size(), 0u);
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  // Full recovery: the damage sat in idle noise, the gap estimate was
  // exact, so both frames decode bit-identically to the clean run.
  EXPECT_EQ(s.matched, 2u);
  EXPECT_EQ(s.symbol_errors, 0u);
  EXPECT_EQ(s.false_detections, 0u);
  EXPECT_EQ(s.ingest.resyncs, 1u);
  EXPECT_EQ(s.ingest.gaps, 1u);
  EXPECT_EQ(s.ingest.gap_samples, kChunkSamples);
  EXPECT_EQ(s.ingest.error_count(stream::IngestError::kChunkCrc), 1u);
  EXPECT_EQ(s.corrupt_chunks, 1u);
}

TEST_F(FaultFile, BitFlipInsideFrameDegradesOnlyThatFrame) {
  prepare([&](const std::string& clean) {
    const fault::TraceLayout l = fault::parse_trace_layout(clean);
    const std::size_t in_frame = chunk_inside(
        l, 1000 + 1024, 1000 + frame_samples() - 1024);
    return fault::flip_chunk_bit(clean, in_frame);
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  // The second frame is untouched and must decode cleanly; only the
  // damaged frame may be lost or errored.
  EXPECT_GE(s.matched, 1u);
  EXPECT_LE(s.symbol_errors, kPayload);
  EXPECT_EQ(s.ingest.resyncs, 1u);
  EXPECT_EQ(s.ingest.gaps, 1u);
}

TEST_F(FaultFile, DroppedChunkIsCaughtByTotalMismatch) {
  prepare([&](const std::string& clean) {
    const fault::TraceLayout l = fault::parse_trace_layout(clean);
    const std::size_t idle = chunk_inside(
        l, 1000 + frame_samples() + 1024, 60000 - 1024);
    return fault::drop_chunk(clean, idle);
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  // A cleanly excised record never fails a CRC — the silent timeline
  // shift is caught by the EOF sample-count cross-check instead.
  EXPECT_EQ(s.ingest.resyncs, 0u);
  EXPECT_EQ(s.ingest.error_count(stream::IngestError::kTotalMismatch), 1u);
  EXPECT_GE(s.matched, 1u);  // the frame before the drop is unaffected
}

TEST_F(FaultFile, DuplicatedChunkIsCaughtByTotalMismatch) {
  prepare([&](const std::string& clean) {
    const fault::TraceLayout l = fault::parse_trace_layout(clean);
    const std::size_t idle = chunk_inside(
        l, 1000 + frame_samples() + 1024, 60000 - 1024);
    return fault::duplicate_chunk(clean, idle);
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  EXPECT_EQ(s.ingest.resyncs, 0u);
  EXPECT_EQ(s.ingest.error_count(stream::IngestError::kTotalMismatch), 1u);
  EXPECT_GE(s.matched, 1u);
}

TEST_F(FaultFile, ReorderedChunksSurfaceAsDecodeDamage) {
  prepare([&](const std::string& clean) {
    const fault::TraceLayout l = fault::parse_trace_layout(clean);
    // Swap inside the *payload*: the preamble is periodic (identical
    // up-chirps), so a period-aligned swap there is invisible by
    // construction. Payload symbols differ chunk to chunk.
    const std::uint64_t payload_lo =
        1000 + frame_samples() -
        kPayload * phy().samples_per_symbol();
    const std::size_t a = chunk_inside(
        l, payload_lo, 1000 + frame_samples() - kChunkSamples);
    return fault::swap_chunks(clean, a, a + 1);
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  // Reordering preserves every CRC and the total count — the one
  // impairment with no ingest-counter signature. It must surface
  // downstream: wrong symbols or a missed frame, never a crash.
  EXPECT_EQ(s.ingest.total_errors(), 0u);
  EXPECT_TRUE(s.symbol_errors > 0 || s.matched < 2)
      << "reordered payload decoded as if clean";
  // The untouched second frame still decodes.
  EXPECT_GE(s.matched, 1u);
}

TEST_F(FaultFile, TruncatedTailKeepsEarlierFrames) {
  prepare([](const std::string& clean) {
    return fault::truncate_trace(clean, (clean.size() * 3) / 5);
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  EXPECT_GE(s.matched, 1u);
  EXPECT_GE(s.ingest.error_count(stream::IngestError::kChunkTruncated) +
                s.ingest.error_count(stream::IngestError::kTotalMismatch),
            1u);
}

// -------------------------------------------------- fault injector

TEST(FaultInjector, SampleDomainIsDeterministicPerSeed) {
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.dropout_rate = 1.0;
  fc.gain_glitch_rate = 1.0;
  fc.dc_step_rate = 1.0;
  fc.clock_drift_ppm = 5000.0;

  dsp::Rng rng(3);
  dsp::Signal chunk(4096);
  for (dsp::Complex& v : chunk) {
    v = dsp::Complex(rng.gaussian(), rng.gaussian());
  }

  fault::FaultInjector a(fc), b(fc);
  dsp::Signal out_a, out_b;
  std::vector<fault::FaultedSegment> seg_a, seg_b;
  const fault::ChunkFaultReport ra = a.apply(chunk, out_a, seg_a);
  const fault::ChunkFaultReport rb = b.apply(chunk, out_b, seg_b);
  EXPECT_EQ(ra.samples_removed, rb.samples_removed);
  EXPECT_EQ(ra.gain_glitches, rb.gain_glitches);
  ASSERT_EQ(out_a.size(), out_b.size());
  EXPECT_TRUE(std::equal(out_a.begin(), out_a.end(), out_b.begin()));
  ASSERT_EQ(seg_a.size(), seg_b.size());
  for (std::size_t i = 0; i < seg_a.size(); ++i) {
    EXPECT_EQ(seg_a[i].offset, seg_b[i].offset);
    EXPECT_EQ(seg_a[i].len, seg_b[i].len);
    EXPECT_EQ(seg_a[i].gap_after, seg_b[i].gap_after);
  }
  // reset() rewinds the decision stream.
  a.reset();
  dsp::Signal out_c;
  std::vector<fault::FaultedSegment> seg_c;
  a.apply(chunk, out_c, seg_c);
  ASSERT_EQ(out_c.size(), out_a.size());
  EXPECT_TRUE(std::equal(out_c.begin(), out_c.end(), out_a.begin()));

  fc.seed = 12;
  fault::FaultInjector d(fc);
  dsp::Signal out_d;
  std::vector<fault::FaultedSegment> seg_d;
  d.apply(chunk, out_d, seg_d);
  EXPECT_FALSE(out_d.size() == out_a.size() &&
               std::equal(out_d.begin(), out_d.end(), out_a.begin()))
      << "different seed produced identical impairment";
}

TEST(FaultInjector, SegmentsAccountForEverySample) {
  fault::FaultConfig fc;
  fc.seed = 21;
  fc.dropout_rate = 1.0;
  fc.dropout_min_samples = 100;
  fc.dropout_max_samples = 400;
  fc.clock_drift_ppm = 20000.0;  // one drop per 50 samples
  fault::FaultInjector inj(fc);

  dsp::Signal chunk(2000, dsp::Complex(1.0, 0.0));
  dsp::Signal out;
  std::vector<fault::FaultedSegment> segments;
  const fault::ChunkFaultReport rep = inj.apply(chunk, out, segments);

  EXPECT_GT(rep.samples_removed, 0u);
  EXPECT_EQ(chunk.size(), out.size() + rep.samples_removed);
  std::uint64_t run = 0, gap = 0;
  for (const fault::FaultedSegment& s : segments) {
    run += s.len;
    gap += s.gap_after;
  }
  EXPECT_EQ(run, out.size());
  EXPECT_EQ(gap, rep.samples_removed);
}

TEST(FaultInjector, ClockDriftSlipsAtTheConfiguredCadence) {
  fault::FaultConfig fc;
  fc.seed = 31;
  fc.clock_drift_ppm = 10000.0;  // one sample per 100
  fault::FaultInjector inj(fc);
  dsp::Signal chunk(1000, dsp::Complex(1.0, 0.0));
  dsp::Signal out;
  std::vector<fault::FaultedSegment> segments;
  std::uint64_t removed = 0;
  for (int c = 0; c < 10; ++c) {
    removed += inj.apply(chunk, out, segments).samples_removed;
  }
  EXPECT_EQ(removed, 100u);  // exact: the accumulator carries fractions

  fc.clock_drift_ppm = -10000.0;  // slow clock duplicates instead
  fault::FaultInjector slow(fc);
  std::uint64_t duplicated = 0;
  for (int c = 0; c < 10; ++c) {
    duplicated += slow.apply(chunk, out, segments).samples_duplicated;
  }
  EXPECT_EQ(duplicated, 100u);
}

TEST_F(FaultFile, SeededTraceShotgunAlwaysReplaysCleanly) {
  prepare([](const std::string& clean) {
    fault::FaultConfig fc;
    fc.seed = 77;
    fc.bitflip_rate = 0.15;
    fc.drop_rate = 0.03;
    fc.duplicate_rate = 0.03;
    fc.reorder_rate = 0.03;
    fault::FaultInjector inj(fc);
    fault::TraceFaultReport rep;
    std::string corrupted = inj.corrupt_trace(clean, &rep);
    EXPECT_TRUE(rep.impaired()) << "shotgun config injected nothing";
    // Determinism holds at the byte level too.
    fault::FaultInjector inj2(fc);
    EXPECT_EQ(corrupted, inj2.corrupt_trace(clean));
    return corrupted;
  });
  const sim::ReplayStats s = sim::replay_trace(path_, recover_cfg());
  // No specific counter contract under combined fire — the contract is
  // completion with the damage accounted *somewhere*.
  EXPECT_GT(s.ingest.total_errors() + s.ingest.resyncs, 0u);
  EXPECT_GT(s.samples, 0u);
}

// --------------------------------------------------- SIC shedding

sim::CaptureConfig collision_pairs_cfg(std::size_t pairs) {
  const std::size_t spsym = phy().samples_per_symbol();
  const std::uint64_t frame =
      lora::Modulator(phy()).layout(16).total_samples;
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.seed = 119;
  cfg.tag_rss_dbm = {-55.0, -61.0};
  std::uint64_t cursor = 500;
  for (std::size_t p = 0; p < pairs; ++p) {
    cfg.offsets.push_back(cursor);
    cfg.offsets.push_back(cursor + 14 * spsym);
    cursor += 2 * frame + 20 * spsym;
  }
  return cfg;
}

TEST_F(FaultFile, SicShedsCancellationsUnderBacklog) {
  const sim::CaptureConfig cfg = collision_pairs_cfg(2);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.collision_groups, 2u);
  sim::write_capture(cap, cfg, path_);

  sim::ReplayConfig rc;
  rc.stream.sic.depth = 2;
  rc.stream.sic.shed_queue = 1;  // any backlog at all sheds the cancel stage
  const sim::ReplayStats s = sim::replay_trace(path_, rc);
  // The buried frame is revealed by the first cancellation and decoded
  // — only its own (pointless) cancel+rescan is shed.
  EXPECT_GE(s.matched, 3u);
  EXPECT_GE(s.ingest.sic_shed, 1u);
  EXPECT_FALSE(s.ingest.clean());
}

TEST_F(FaultFile, SicRescanQueueCapEvictsOldest) {
  const sim::CaptureConfig cfg = collision_pairs_cfg(2);
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, path_);

  sim::ReplayConfig rc;
  rc.stream.sic.depth = 2;
  rc.stream.sic.max_rescan_queue = 1;
  const sim::ReplayStats s = sim::replay_trace(path_, rc);
  EXPECT_GE(s.matched, 3u);
  EXPECT_GE(s.ingest.rescans_dropped, 1u);
}

// ------------------------------------------------ TraceWriter errors

TEST(TraceWriterErrors, CloseFailureIsRecordedNotThrown) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  stream::TraceMeta meta;
  meta.phy = phy();
  meta.payload_symbols = kPayload;
  try {
    stream::TraceWriter writer("/dev/full", meta);
    dsp::Signal samples(16, dsp::Complex(1.0, 0.0));
    try {
      writer.write_chunk(samples);
    } catch (const std::runtime_error&) {
      // An eager flush may surface the failure here already — also
      // acceptable; last_error must be set either way.
    }
    EXPECT_FALSE(writer.try_close());
    EXPECT_FALSE(writer.last_error().empty());
    // try_close is idempotent and keeps reporting the failure.
    EXPECT_FALSE(writer.try_close());
  } catch (const std::runtime_error&) {
    // Header write already failed — equally a clean, reported failure.
  }
}

TEST_F(FaultFile, CleanCloseLeavesNoError) {
  stream::TraceMeta meta;
  meta.phy = phy();
  meta.payload_symbols = kPayload;
  stream::TraceWriter writer(path_, meta);
  dsp::Signal samples(16, dsp::Complex(1.0, 0.0));
  writer.write_chunk(samples);
  EXPECT_TRUE(writer.try_close());
  EXPECT_TRUE(writer.last_error().empty());
  EXPECT_TRUE(writer.try_close());  // idempotent success
}

// Regression: the close path used to re-run the header patch on a
// second try_close() call and could overwrite a write_chunk failure
// message with its own — the first error must stay sticky across
// flush and close, and close must happen exactly once.
TEST(TraceWriterErrors, WriteFailureStaysStickyAcrossClose) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  stream::TraceMeta meta;
  meta.phy = phy();
  meta.payload_symbols = kPayload;
  try {
    stream::TraceWriter writer("/dev/full", meta);
    dsp::Signal samples(16, dsp::Complex(1.0, 0.0));
    bool chunk_failed = false;
    try {
      writer.write_chunk(samples);
      // Push until the stream error surfaces (buffering may defer it).
      for (int i = 0; i < 64 && !chunk_failed; ++i) writer.write_chunk(samples);
    } catch (const std::runtime_error&) {
      chunk_failed = true;
    }
    if (!chunk_failed) GTEST_SKIP() << "/dev/full absorbed the writes";
    const std::string first = writer.last_error();
    ASSERT_NE(first.find("chunk write failed"), std::string::npos) << first;
    EXPECT_FALSE(writer.try_close());
    EXPECT_EQ(writer.last_error(), first) << "close overwrote the first error";
    EXPECT_FALSE(writer.try_close());  // double-call stays idempotent
    EXPECT_EQ(writer.last_error(), first);
    auto r = writer.finish();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.message(), first);
  } catch (const std::runtime_error&) {
    // Header write already failed — equally a clean, reported failure.
  }
}

// finish() is the Result-returning close: idempotent on success and
// round-trippable (the trace it wrote reads back).
TEST_F(FaultFile, FinishReportsCleanCloseOnce) {
  stream::TraceMeta meta;
  meta.phy = phy();
  meta.payload_symbols = kPayload;
  stream::TraceWriter writer(path_, meta);
  dsp::Signal samples(64, dsp::Complex(0.5, -0.5));
  writer.write_chunk(samples);
  auto first = writer.finish();
  ASSERT_TRUE(first.ok()) << first.message();
  auto second = writer.finish();
  EXPECT_TRUE(second.ok());
  EXPECT_TRUE(writer.last_error().empty());

  auto reader = stream::TraceReader::open(path_);
  ASSERT_TRUE(reader.ok()) << reader.message();
  EXPECT_EQ(reader.value().meta().total_samples, samples.size());
}

// --------------------------------------------- layout parser limits

TEST(TraceLayout, RejectsMalformedBytes) {
  EXPECT_THROW(fault::parse_trace_layout(""), std::invalid_argument);
  EXPECT_THROW(fault::parse_trace_layout("SAIYTRC1 short"),
               std::invalid_argument);
  std::string bogus(200, '\0');
  EXPECT_THROW(fault::parse_trace_layout(bogus), std::invalid_argument);
}

}  // namespace
}  // namespace saiyan
