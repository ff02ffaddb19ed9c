// Impaired-ingest replay: throughput and recovery quality of the
// skip-and-resync + gap-realignment path under escalating trace
// corruption, against the clean replay as baseline. Answers two
// operator questions: how much decode quality survives N% record
// corruption, and what the resync machinery costs when it actually
// has to run (the clean-path cost is covered by BM_StreamReplay).
#include <chrono>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "fault/fault_injector.hpp"
#include "sim/capture.hpp"

using namespace saiyan;

namespace {

struct FaultPoint {
  const char* name;
  double bitflip_rate;
  double drop_rate;
};

constexpr const char* kTracePath = "bench_fault_replay.sytrc";

double timed_replay(sim::ReplayStats& stats) {
  sim::ReplayConfig rc;
  rc.resync = true;
  rc.stream.seed_by_offset = true;
  const auto t0 = std::chrono::steady_clock::now();
  stats = sim::replay_trace(kTracePath, rc);
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::banner("Impaired-ingest replay (fault injection)",
                "robustness layer: trace resync + gap realignment");

  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(bench::default_phy(), core::Mode::kSuper);
  cfg.tag_rss_dbm = {-40.0, -45.0, -50.0};
  cfg.packets_per_tag = 8;
  cfg.payload_symbols = 16;
  cfg.min_gap_symbols = 8.0;
  cfg.max_gap_symbols = 24.0;
  cfg.seed = 5;
  const sim::Capture cap = sim::generate_capture(cfg);
  sim::write_capture(cap, cfg, kTracePath, 8192);
  const std::string clean = fault::read_file(kTracePath);
  const double msamples =
      static_cast<double>(cap.samples.size()) / 1e6;

  const FaultPoint points[] = {
      {"clean", 0.0, 0.0},
      {"0.5% flipped", 0.005, 0.0},
      {"2% flipped", 0.02, 0.0},
      {"5% flipped", 0.05, 0.0},
      {"2% flip + 1% drop", 0.02, 0.01},
  };

  std::printf("%-20s %8s %8s %8s %8s %9s %10s\n", "corruption", "resyncs",
              "gaps", "matched", "SER", "Msamp/s", "vs clean");
  double clean_rate = 0.0;
  for (const FaultPoint& pt : points) {
    fault::FaultConfig fc;
    fc.seed = 17;
    fc.bitflip_rate = pt.bitflip_rate;
    fc.drop_rate = pt.drop_rate;
    fault::FaultInjector inj(fc);
    fault::write_file(kTracePath, inj.corrupt_trace(clean));

    sim::ReplayStats stats;
    const double secs = timed_replay(stats);
    const double rate = msamples / secs;
    if (pt.bitflip_rate == 0.0 && pt.drop_rate == 0.0) clean_rate = rate;
    std::printf("%-20s %8llu %8llu %4zu/%-3zu %7.4f %9.1f %9.2fx\n", pt.name,
                static_cast<unsigned long long>(stats.ingest.resyncs),
                static_cast<unsigned long long>(stats.ingest.gaps),
                stats.matched, stats.markers, stats.ser(), rate,
                clean_rate > 0.0 ? rate / clean_rate : 1.0);
  }
  std::remove(kTracePath);
  return 0;
}
