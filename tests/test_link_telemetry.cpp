// Link telescope (src/obs/link_telemetry.*) tests.
//
// Three layers: the registry itself (LRU bound + eviction counter,
// seqlock torn-read freedom under a hammering writer, sequence-gap
// loss inference including counter wrap, noise-floor EWMA gating);
// the per-frame estimators end to end through the streaming
// demodulator against injected ground truth (known RSS over a thermal
// floor -> SNR, injected per-tag CFO -> cfo_hz, |timing| <= 1,
// positive correlation margin) across spreading factors and collision
// overlap offsets; and the load-bearing invariant that attaching the
// telemetry sink never changes what the demodulator decodes. The
// `links` control-op query grammar (parse_readout_query/links_to_text)
// rides along since it has no other natural unit-test home.
#include "obs/link_telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "dsp/noise.hpp"
#include "dsp/utils.hpp"
#include "gateway/gateway_metrics.hpp"
#include "sim/capture.hpp"
#include "stream/streaming_demod.hpp"

namespace saiyan {
namespace {

obs::FrameDiag diag(std::uint32_t tag, std::uint32_t channel = 0) {
  obs::FrameDiag d;
  d.tag_id = tag;
  d.channel = channel;
  d.snr_db = 20.0;
  return d;
}

// ------------------------------------------------------------ registry

TEST(LinkTelemetry, RegistryIsBoundedWithLruEviction) {
  obs::LinkTelemetry lt(4);
  EXPECT_EQ(lt.capacity(), 4u);
  for (std::uint32_t t = 0; t < 4; ++t) lt.record_frame(diag(t));
  // Refresh tags 0..2 so tag 3 is the least recently seen.
  for (std::uint32_t t = 0; t < 3; ++t) lt.record_frame(diag(t));
  lt.record_frame(diag(100));  // evicts tag 3
  lt.record_frame(diag(101));  // evicts tag 0 (refreshed first)

  const obs::LinkRegistrySnapshot snap = lt.snapshot();
  EXPECT_EQ(snap.links.size(), 4u);
  EXPECT_EQ(snap.evictions, 2u);
  EXPECT_EQ(snap.frames_total, 9u);
  std::vector<std::uint32_t> tags;
  for (const obs::LinkSnapshot& l : snap.links) tags.push_back(l.tag_id);
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<std::uint32_t>{1, 2, 100, 101}));
  // The survivor windows kept their history; the evicted slots were
  // wiped, not merged into their replacements.
  for (const obs::LinkSnapshot& l : snap.links) {
    EXPECT_EQ(l.frames, l.tag_id < 100 ? 2u : 1u) << "tag " << l.tag_id;
  }
}

TEST(LinkTelemetry, SameTagDifferentChannelIsADistinctLink) {
  obs::LinkTelemetry lt(8);
  lt.record_frame(diag(7, 0));
  lt.record_frame(diag(7, 1));
  lt.record_frame(diag(7, 1));
  const obs::LinkRegistrySnapshot snap = lt.snapshot();
  ASSERT_EQ(snap.links.size(), 2u);
  for (const obs::LinkSnapshot& l : snap.links) {
    EXPECT_EQ(l.frames, l.channel == 0 ? 1u : 2u);
  }
}

TEST(LinkTelemetry, SequenceGapsInferLossesAcrossWraps) {
  obs::LinkTelemetry lt(4);
  const std::uint32_t mod = 32;
  auto seq_frame = [&](std::uint32_t seq) {
    obs::FrameDiag d = diag(1);
    d.seq = seq;
    d.seq_modulus = mod;
    d.has_seq = true;
    lt.record_frame(d);
  };
  seq_frame(5);
  seq_frame(6);   // consecutive: no loss
  seq_frame(9);   // gap: 2 lost
  seq_frame(30);  // gap: 20 lost
  seq_frame(2);   // wrap 30 -> 2 (mod 32): 3 lost
  const obs::LinkRegistrySnapshot snap = lt.snapshot();
  ASSERT_EQ(snap.links.size(), 1u);
  EXPECT_EQ(snap.links[0].frames, 5u);
  EXPECT_EQ(snap.links[0].lost_frames, 2u + 20u + 3u);
}

TEST(LinkTelemetry, SnapshotNeverTearsUnderWriterHammer) {
  // Writer folds frames whose every field is a function of the tag id;
  // a torn read mixing two slots (or a slot mid-wipe) would surface as
  // an EWMA that is not exactly the constant being folded in (the EWMA
  // of a constant stream, seeded with that constant, is a fixpoint).
  obs::LinkTelemetry lt(8);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint32_t tag = i++ % 12;  // 12 tags, 8 slots: evictions
      obs::FrameDiag d;
      d.tag_id = tag;
      d.channel = tag + 1;
      d.snr_db = static_cast<double>(tag) * 3.0;
      d.cfo_hz = static_cast<double>(tag) * -7.0;
      d.latency_us = tag;
      lt.record_frame(d);
    }
  });
  for (int round = 0; round < 2000; ++round) {
    const obs::LinkRegistrySnapshot snap = lt.snapshot();
    EXPECT_LE(snap.links.size(), 8u);
    for (const obs::LinkSnapshot& l : snap.links) {
      EXPECT_EQ(l.channel, l.tag_id + 1);
      EXPECT_EQ(l.ewma_snr_db, static_cast<double>(l.tag_id) * 3.0);
      EXPECT_EQ(l.ewma_cfo_hz, static_cast<double>(l.tag_id) * -7.0);
      EXPECT_EQ(l.ewma_latency_us, static_cast<double>(l.tag_id));
      EXPECT_GE(l.frames, 1u);
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------- noise floor

TEST(LinkTelemetry, NoiseFloorTracksIdlePowerAndGatesBursts) {
  obs::LinkTelemetry lt(4);
  EXPECT_FALSE(lt.noise_floor_valid());
  EXPECT_EQ(lt.noise_floor_dbm(), obs::LinkTelemetry::kNoFloorDbm);

  const double floor_w = dsp::dbm_to_watts(-100.0);
  for (int i = 0; i < 64; ++i) lt.sample_noise(floor_w);
  ASSERT_TRUE(lt.noise_floor_valid());
  EXPECT_NEAR(lt.noise_floor_dbm(), -100.0, 0.1);

  // A missed-onset transmission (way above the gate) must not ratchet
  // the floor upward.
  lt.sample_noise(floor_w * 100.0);
  EXPECT_NEAR(lt.noise_floor_dbm(), -100.0, 0.1);

  // Fast attack down: a quieter band converges in a few samples...
  const double lower_w = dsp::dbm_to_watts(-110.0);
  for (int i = 0; i < 48; ++i) lt.sample_noise(lower_w);
  EXPECT_NEAR(lt.noise_floor_dbm(), -110.0, 0.5);
  // ...slow release up: a within-gate rise pulls slower but converges.
  const double mid_w = dsp::dbm_to_watts(-106.0);
  for (int i = 0; i < 256; ++i) lt.sample_noise(mid_w);
  EXPECT_NEAR(lt.noise_floor_dbm(), -106.0, 0.5);
}

// ----------------------------------------------------- estimators (e2e)

lora::PhyParams phy(std::uint32_t sf = 7) {
  lora::PhyParams p;
  p.spreading_factor = sf;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

sim::CaptureConfig telemetry_cfg(const lora::PhyParams& p, double rss_dbm,
                                 double cfo_hz, std::uint64_t seed) {
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(p, core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 4;
  cfg.tag_rss_dbm = {rss_dbm};
  if (cfo_hz != 0.0) cfg.tag_cfo_hz = {cfo_hz};
  // Generous idle gaps so whole scan blocks sit between frames and the
  // noise-floor tracker primes from genuinely idle air.
  cfg.min_gap_symbols = 16.0;
  cfg.max_gap_symbols = 24.0;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<stream::StreamingDemodulator> run_stream(
    const sim::Capture& cap, const sim::CaptureConfig& cfg,
    obs::LinkTelemetry* lt, std::size_t chunk = 16384,
    std::size_t sic_depth = 0) {
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.sic.depth = sic_depth;
  sc.link_telemetry = lt;
  auto demod = std::make_unique<stream::StreamingDemodulator>(sc);
  std::span<const dsp::Complex> rest(cap.samples);
  while (!rest.empty()) {
    const std::size_t take = std::min(chunk, rest.size());
    demod->push(rest.first(take));
    rest = rest.subspan(take);
  }
  demod->finish();
  return demod;
}

TEST(LinkEstimators, SnrTracksInjectedPowerAcrossSpreadingFactors) {
  for (const std::uint32_t sf : {7u, 8u}) {
    const lora::PhyParams p = phy(sf);
    const double rss = -55.0;
    const double floor =
        dsp::thermal_noise_floor_dbm(p.sample_rate_hz, 6.0);
    const sim::CaptureConfig cfg = telemetry_cfg(p, rss, 0.0, 11 + sf);
    const sim::Capture cap = sim::generate_capture(cfg);
    obs::LinkTelemetry lt;
    const auto demod = run_stream(cap, cfg, &lt);
    ASSERT_TRUE(lt.noise_floor_valid()) << "sf " << sf;
    EXPECT_NEAR(lt.noise_floor_dbm(), floor, 2.0) << "sf " << sf;
    ASSERT_GE(demod->packets().size(), 3u) << "sf " << sf;
    for (const stream::DecodedPacket& pk : demod->packets()) {
      EXPECT_NEAR(pk.snr_db, rss - floor, 3.0) << "sf " << sf;
      EXPECT_NEAR(pk.noise_floor_dbm, floor, 2.0) << "sf " << sf;
      EXPECT_GE(pk.corr_margin, 0.0);
      EXPECT_LE(std::abs(pk.timing_offset), 1.0);
    }
  }
}

TEST(LinkEstimators, CfoRecoversInjectedOffset) {
  for (const double cfo : {-400.0, 0.0, 250.0}) {
    const sim::CaptureConfig cfg =
        telemetry_cfg(phy(), -55.0, cfo, 99);
    const sim::Capture cap = sim::generate_capture(cfg);
    obs::LinkTelemetry lt;
    const auto demod = run_stream(cap, cfg, &lt);
    ASSERT_GE(demod->packets().size(), 3u) << "cfo " << cfo;
    for (const stream::DecodedPacket& pk : demod->packets()) {
      EXPECT_NEAR(pk.cfo_hz, cfo, 25.0) << "cfo " << cfo;
    }
  }
}

TEST(LinkEstimators, SurvivesCollisionOverlapsUnderSic) {
  // Two tags, the weaker starting mid-frame of the stronger: the
  // estimators must stay sane (finite, in range) for both the clean
  // and the SIC-rescued frame, at several overlap offsets.
  const std::size_t spsym = phy().samples_per_symbol();
  for (const std::size_t sym : {3u, 9u, 17u}) {
    sim::CaptureConfig cfg;
    cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
    cfg.payload_symbols = 16;
    cfg.seed = 100 + sym;
    cfg.tag_rss_dbm = {-55.0, -61.0};
    cfg.offsets = {40000, 40000 + sym * spsym};
    const sim::Capture cap = sim::generate_capture(cfg);
    obs::LinkTelemetry lt;
    const auto demod = run_stream(cap, cfg, &lt, 16384, /*sic_depth=*/2);
    ASSERT_GE(demod->packets().size(), 2u) << "offset " << sym;
    for (const stream::DecodedPacket& pk : demod->packets()) {
      EXPECT_TRUE(std::isfinite(pk.snr_db));
      EXPECT_TRUE(std::isfinite(pk.cfo_hz));
      EXPECT_LE(std::abs(pk.timing_offset), 1.0);
      // Overlapped frame power can double-count the other frame:
      // allow slack above the single-tag expectation, none below
      // what the weaker tag alone would produce.
      EXPECT_GT(pk.snr_db, 20.0) << "offset " << sym;
      EXPECT_LT(pk.snr_db, 60.0) << "offset " << sym;
    }
  }
}

TEST(LinkEstimators, TelemetrySinkNeverChangesDecode) {
  // The hard invariant: identical decode output with the sink attached
  // or detached, at several chunk sizes, with and without SIC.
  const sim::CaptureConfig cfg = telemetry_cfg(phy(), -58.0, 150.0, 7);
  const sim::Capture cap = sim::generate_capture(cfg);
  for (const std::size_t chunk : {997u, 16384u}) {
    for (const std::size_t depth : {0u, 2u}) {
      obs::LinkTelemetry lt;
      const auto with = run_stream(cap, cfg, &lt, chunk, depth);
      const auto without = run_stream(cap, cfg, nullptr, chunk, depth);
      ASSERT_EQ(with->packets().size(), without->packets().size());
      for (std::size_t i = 0; i < with->packets().size(); ++i) {
        const stream::DecodedPacket& a = with->packets()[i];
        const stream::DecodedPacket& b = without->packets()[i];
        EXPECT_EQ(a.packet_start, b.packet_start);
        EXPECT_EQ(a.payload_start, b.payload_start);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.collided, b.collided);
        EXPECT_EQ(a.sic_assisted, b.sic_assisted);
        const auto sa = with->symbols(a);
        const auto sb = without->symbols(b);
        ASSERT_EQ(sa.size(), sb.size());
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
      }
      // The demodulator's half of the telemetry ran (noise sampling;
      // record_frame is the gateway's job, not the demodulator's).
      EXPECT_TRUE(lt.noise_floor_valid());
    }
  }
}

TEST(LinkEstimators, LinkHeaderCaptureKeepsScheduleBitIdentical) {
  // link_headers only rewrites payload symbols 0/1 after the random
  // draws: the waveform's schedule (marker offsets) and every other
  // symbol must match the header-less capture exactly.
  sim::CaptureConfig cfg = telemetry_cfg(phy(), -58.0, 0.0, 21);
  const sim::Capture plain = sim::generate_capture(cfg);
  cfg.link_headers = true;
  const sim::Capture keyed = sim::generate_capture(cfg);
  ASSERT_EQ(plain.markers.size(), keyed.markers.size());
  for (std::size_t i = 0; i < plain.markers.size(); ++i) {
    EXPECT_EQ(plain.markers[i].sample_offset, keyed.markers[i].sample_offset);
    EXPECT_EQ(keyed.markers[i].symbols[0],
              keyed.markers[i].tag_id %
                  cfg.saiyan.phy.symbol_alphabet());
    for (std::size_t s = 2; s < plain.markers[i].symbols.size(); ++s) {
      EXPECT_EQ(plain.markers[i].symbols[s], keyed.markers[i].symbols[s]);
    }
  }
}

// ------------------------------------------------------ links op query

TEST(LinkQueryGrammar, ParsesOptionsAndRejectsGarbage) {
  using gateway::LinkQuery;
  const auto parse = [](std::string_view text) {
    return gateway::parse_readout_query(text, /*links=*/true);
  };
  auto q = parse("");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().links.top, 0u);
  EXPECT_EQ(q.value().links.sort, LinkQuery::Sort::kFrames);
  EXPECT_EQ(q.value().format, obs::Format::kText);

  q = parse("  top=5\tsort=snr format=json ");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().links.top, 5u);
  EXPECT_EQ(q.value().links.sort, LinkQuery::Sort::kSnr);
  EXPECT_EQ(q.value().format, obs::Format::kJson);

  EXPECT_FALSE(parse("top=~~").ok());
  EXPECT_FALSE(parse("top=5x").ok());
  EXPECT_FALSE(parse("sort=bogus").ok());
  EXPECT_FALSE(parse("limit=3").ok());
  EXPECT_FALSE(parse("top 3").ok());
  EXPECT_FALSE(parse("format=xml").ok());

  // stats and health take format= only.
  EXPECT_TRUE(gateway::parse_readout_query("format=text", false).ok());
  EXPECT_FALSE(gateway::parse_readout_query("top=3", false).ok());
  EXPECT_FALSE(gateway::parse_readout_query("sort=snr", false).ok());
}

TEST(LinkQueryGrammar, TextListingOrdersAndLimits) {
  obs::LinkTelemetry lt(8);
  for (std::uint32_t t = 0; t < 3; ++t) {
    for (std::uint32_t n = 0; n <= t; ++n) {
      obs::FrameDiag d = diag(t);
      d.snr_db = 30.0 - static_cast<double>(t) * 5.0;
      lt.record_frame(d);
    }
  }
  gateway::LinkQuery q;
  q.top = 2;
  q.sort = gateway::LinkQuery::Sort::kSnr;  // worst first
  const std::string text = gateway::links_to_text(lt.snapshot(), q);
  EXPECT_NE(text.find("links_tracked 3"), std::string::npos);
  EXPECT_NE(text.find("links_listed 2"), std::string::npos);
  // Tag 2 has the worst EWMA SNR (20 dB) and must list; tag 0 (30 dB)
  // must be cut by top=2.
  EXPECT_NE(text.find("link.2.0.frames 3"), std::string::npos);
  EXPECT_EQ(text.find("link.0.0."), std::string::npos);
}

}  // namespace
}  // namespace saiyan
