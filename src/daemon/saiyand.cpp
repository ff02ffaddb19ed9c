// saiyand — the Saiyan gateway daemon.
//
// Serve mode (default): build a gateway::Gateway from a config file
// and/or flags, enqueue any --trace files, and serve until SIGTERM.
// A unix control socket answers saiyand-control (stats, health, links,
// metrics, reload, drain, dump_trace). SIGHUP re-reads --config and
// swaps the serving config; jobs already running finish under the
// config they started with, so a reload never drops an in-flight span.
// SIGTERM/SIGINT drain queued work, print final stats, and exit 0.
//
// Record mode (--record OUT): synthesize a deterministic multi-tag
// capture with the simulator and write it as a trace — the
// record-then-serve quickstart needs no SDR:
//
//   saiyand --record demo.trace --tags 3 --packets 4
//   saiyand --trace demo.trace --workers 2 --oneshot
//
// With --segment-samples N the recording goes to a crash-safe segment
// directory instead of one file (stream/trace_segments.hpp): sealed
// segments survive a SIGKILL bit-exactly, and `saiyand --recover DIR`
// salvages them (plus the valid prefix of the torn tail) afterwards —
// optionally merging into one servable trace with --recover-out.
// A failed recording exits non-zero with the writer's error.
//
// Lifecycle and the control wire format are documented in
// docs/GATEWAY.md.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/control_server.hpp"
#include "daemon/daemon_config.hpp"
#include "gateway/gateway.hpp"
#include "gateway/gateway_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "sim/capture.hpp"
#include "stream/trace_segments.hpp"

namespace {

using saiyan::daemon::ControlOp;
using saiyan::daemon::ControlRequest;
using saiyan::daemon::ControlResponse;
using saiyan::daemon::ControlStatus;
using saiyan::daemon::DaemonOptions;

int g_signal_pipe_w = -1;

void on_signal(int signo) {
  const char b = signo == SIGHUP ? 'h' : 't';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_w, &b, 1);
}

void usage(FILE* out) {
  std::fprintf(
      out,
      "saiyand — Saiyan LoRa-backscatter gateway daemon\n"
      "\n"
      "serve:  saiyand [--config FILE] [--socket PATH] [--trace FILE]...\n"
      "                [--workers N] [--throttle-us N]\n"
      "                [--print-frames] [--oneshot] [--trace-out FILE]\n"
      "record: saiyand --record OUT.trace [--tags N] [--packets N]\n"
      "                [--payload-symbols N] [--seed N] [--float32]\n"
      "                [--segment-samples N] [--fsync none|seal|chunk]\n"
      "                [--record-throttle-us N]\n"
      "recover: saiyand --recover DIR [--recover-out OUT.trace]\n"
      "\n"
      "  --config FILE      key/value config (see docs/GATEWAY.md);\n"
      "                     re-read and applied on SIGHUP\n"
      "  --socket PATH      control socket (default /tmp/saiyand.sock)\n"
      "  --trace FILE       enqueue a trace replay job (repeatable)\n"
      "  --oneshot          drain queued jobs, print stats, exit\n"
      "  --print-frames     log every decoded frame to stdout\n"
      "  --trace-out FILE   at exit, write the flight recorder's full\n"
      "                     timeline as Chrome/Perfetto trace JSON\n"
      "  --record OUT       write a synthetic capture trace and exit\n"
      "  --segment-samples N  record into OUT/ as crash-safe segments\n"
      "                     sealed every N samples (see --recover)\n"
      "  --fsync MODE       segment durability: none|seal|chunk\n"
      "  --record-throttle-us N  sleep between recorded chunks (pace a\n"
      "                     recording so a crash can interrupt it)\n"
      "  --recover DIR      salvage a segment directory, print report\n"
      "  --recover-out OUT  also merge the salvage into one trace\n");
}

struct RecordOptions {
  std::string out_path;
  std::size_t tags = 3;
  std::size_t packets = 4;
  std::size_t payload_symbols = 16;
  std::uint64_t seed = 1;
  bool float32 = false;
  std::uint64_t segment_samples = 0;  ///< 0 = single-file trace
  saiyan::stream::FsyncPolicy fsync = saiyan::stream::FsyncPolicy::kOnSeal;
  std::uint64_t throttle_us = 0;
};

int run_record(const RecordOptions& ro) {
  saiyan::sim::CaptureConfig cfg;
  cfg.saiyan = saiyan::core::SaiyanConfig::make(saiyan::lora::PhyParams{},
                                                saiyan::core::Mode::kSuper);
  for (std::size_t t = 0; t < ro.tags; ++t) {
    cfg.tag_rss_dbm.push_back(-55.0 - 3.0 * static_cast<double>(t));
  }
  cfg.packets_per_tag = ro.packets;
  cfg.payload_symbols = ro.payload_symbols;
  cfg.seed = ro.seed;
  const saiyan::sim::Capture cap = saiyan::sim::generate_capture(cfg);
  // Recording is the one mode whose product *is* the file: any write
  // failure (full disk, bad path, torn close) must reach the exit
  // status, not vanish behind a cheerful "recorded" line.
  try {
    constexpr std::size_t kChunk = 16384;
    if (ro.segment_samples != 0) {
      saiyan::stream::TraceMeta meta;
      meta.phy = cfg.saiyan.phy;
      meta.mode = cfg.saiyan.mode;
      meta.payload_symbols = cfg.payload_symbols;
      meta.float32_samples = ro.float32;
      saiyan::stream::SegmentPolicy policy;
      policy.segment_samples = ro.segment_samples;
      policy.fsync = ro.fsync;
      saiyan::stream::SegmentedTraceWriter writer(ro.out_path, meta,
                                                  cap.markers, policy);
      std::span<const saiyan::dsp::Complex> rest(cap.samples);
      while (!rest.empty()) {
        const std::size_t take = std::min(kChunk, rest.size());
        writer.write_chunk(rest.first(take));
        rest = rest.subspan(take);
        if (ro.throttle_us != 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(ro.throttle_us));
        }
      }
      if (auto fin = writer.finish(); !fin.ok()) {
        std::fprintf(stderr, "saiyand: record failed: %s\n",
                     fin.message().c_str());
        return 1;
      }
      std::printf("recorded %s: %zu tags, %zu frames, %zu samples, "
                  "%zu segments sealed%s\n",
                  ro.out_path.c_str(), ro.tags, cap.markers.size(),
                  cap.samples.size(), writer.segments_sealed(),
                  ro.float32 ? " (float32)" : "");
    } else {
      saiyan::sim::write_capture(cap, cfg, ro.out_path, kChunk, ro.float32);
      std::printf("recorded %s: %zu tags, %zu frames, %zu samples%s\n",
                  ro.out_path.c_str(), ro.tags, cap.markers.size(),
                  cap.samples.size(), ro.float32 ? " (float32)" : "");
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "saiyand: record failed: %s\n", err.what());
    return 1;
  }
  return 0;
}

int run_recover(const std::string& dir, const std::string& out_path) {
  auto rep = out_path.empty()
                 ? saiyan::stream::scan_segments(dir)
                 : saiyan::stream::merge_segments(dir, out_path);
  if (!rep.ok()) {
    std::fprintf(stderr, "saiyand: recover: %s\n", rep.message().c_str());
    return 1;
  }
  std::fputs(rep.value().to_text().c_str(), stdout);
  if (!out_path.empty()) {
    std::fprintf(stderr, "saiyand: recover: merged %llu samples -> %s\n",
                 static_cast<unsigned long long>(
                     rep.value().salvaged_samples),
                 out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opt;
  bool oneshot = false;
  bool print_frames = false;
  RecordOptions rec;
  std::string recover_dir;
  std::string recover_out;
  std::string trace_out;
  std::vector<std::string> cli_traces;
  // CLI overrides are applied after --config so flags win.
  long cli_workers = -1, cli_throttle = -1;
  std::string cli_socket;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "saiyand: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--config") {
      auto loaded = saiyan::daemon::load_daemon_config(next());
      if (!loaded.ok()) {
        std::fprintf(stderr, "saiyand: %s\n", loaded.message().c_str());
        return 2;
      }
      opt = loaded.value();
    } else if (arg == "--socket") {
      cli_socket = next();
    } else if (arg == "--trace") {
      cli_traces.emplace_back(next());
    } else if (arg == "--workers") {
      cli_workers = std::atol(next());
    } else if (arg == "--throttle-us") {
      cli_throttle = std::atol(next());
    } else if (arg == "--oneshot") {
      oneshot = true;
    } else if (arg == "--print-frames") {
      print_frames = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--record") {
      rec.out_path = next();
    } else if (arg == "--tags") {
      rec.tags = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--packets") {
      rec.packets = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--payload-symbols") {
      rec.payload_symbols = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--seed") {
      rec.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--float32") {
      rec.float32 = true;
    } else if (arg == "--segment-samples") {
      rec.segment_samples = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--fsync") {
      const std::string mode = next();
      if (mode == "none") {
        rec.fsync = saiyan::stream::FsyncPolicy::kNone;
      } else if (mode == "seal") {
        rec.fsync = saiyan::stream::FsyncPolicy::kOnSeal;
      } else if (mode == "chunk") {
        rec.fsync = saiyan::stream::FsyncPolicy::kEveryChunk;
      } else {
        std::fprintf(stderr, "saiyand: --fsync must be none|seal|chunk\n");
        return 2;
      }
    } else if (arg == "--record-throttle-us") {
      rec.throttle_us = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--recover") {
      recover_dir = next();
    } else if (arg == "--recover-out") {
      recover_out = next();
    } else {
      std::fprintf(stderr, "saiyand: unknown flag %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (!recover_dir.empty()) {
    return run_recover(recover_dir, recover_out);
  }
  if (!rec.out_path.empty()) {
    return run_record(rec);
  }

  if (!cli_socket.empty()) opt.socket_path = cli_socket;
  for (std::string& t : cli_traces) opt.traces.push_back(std::move(t));
  if (cli_workers >= 0) {
    opt.gateway.workers = static_cast<std::size_t>(cli_workers);
  }
  if (cli_throttle >= 0) {
    opt.gateway.throttle_us = static_cast<std::uint64_t>(cli_throttle);
  }
  // Watchdog cancels and ladder transitions are operational events;
  // surface them in the daemon log.
  opt.gateway.on_event = [](const std::string& msg) {
    std::fprintf(stderr, "saiyand: %s\n", msg.c_str());
  };

  // Arm the flight recorder before any gateway thread starts, so the
  // worker/watchdog/subscriber rings register under their real names.
  // Library users pay nothing (default off); the daemon *is* the
  // observability surface, so here it is on — BM_TracingOverhead keeps
  // the cost honest (see docs/OBSERVABILITY.md).
  saiyan::obs::set_enabled(true);

  // Exit-path dump shared by oneshot and signal shutdown: the whole
  // timeline (untrimmed — the control op's payload cap only exists for
  // the socket), written before the gateway is torn down.
  auto write_trace_out = [&trace_out]() {
    if (trace_out.empty()) return;
    const std::string json = saiyan::obs::chrome_trace_json();
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "saiyand: --trace-out %s: %s\n",
                   trace_out.c_str(), std::strerror(errno));
      return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "saiyand: wrote trace (%zu bytes) -> %s\n",
                 json.size(), trace_out.c_str());
  };

  auto created = saiyan::gateway::Gateway::create(opt.gateway);
  if (!created.ok()) {
    std::fprintf(stderr, "saiyand: config: %s\n", created.message().c_str());
    return 2;
  }
  std::unique_ptr<saiyan::gateway::Gateway> gw = std::move(created).value();

  if (print_frames) {
    gw->subscribe([](const saiyan::gateway::FrameRecord& fr) {
      std::printf("frame job=%llu worker=%u start=%llu score=%.3f "
                  "symbols=%zu%s%s\n",
                  static_cast<unsigned long long>(fr.job), fr.worker,
                  static_cast<unsigned long long>(fr.packet_start), fr.score,
                  fr.symbols.size(), fr.collided ? " collided" : "",
                  fr.sic_assisted ? " sic" : "");
    });
  }

  for (const std::string& path : opt.traces) {
    auto job = gw->enqueue_trace(path);
    if (!job.ok()) {
      std::fprintf(stderr, "saiyand: enqueue %s: %s\n", path.c_str(),
                   job.message().c_str());
      return 2;
    }
    std::fprintf(stderr, "saiyand: job %llu <- %s\n",
                 static_cast<unsigned long long>(job.value()), path.c_str());
  }

  // Reload shared by SIGHUP and the control socket: re-read the config
  // file when one was given, otherwise re-apply the current config
  // (still bumps config_reloads so operators see the signal landed).
  // The two callers run on different threads (signal loop vs control
  // server) and both read-modify-write opt.gateway — serialize them,
  // or a SIGHUP racing a `reload` op is a data race on the config.
  std::mutex reload_mu;
  auto do_reload = [&]() -> saiyan::Result<saiyan::Unit> {
    std::lock_guard<std::mutex> lk(reload_mu);
    if (!opt.config_path.empty()) {
      auto loaded = saiyan::daemon::load_daemon_config(opt.config_path);
      if (!loaded.ok()) return loaded.error();
      // Serving identity (socket, worker pool) is fixed at start; only
      // the gateway serving config is swappable.
      loaded.value().gateway.on_event = opt.gateway.on_event;
      auto r = gw->reload(loaded.value().gateway);
      if (r.ok()) opt.gateway = loaded.value().gateway;
      return r;
    }
    return gw->reload(opt.gateway);
  };

  auto server = saiyan::daemon::ControlServer::start(
      opt.socket_path, [&](const ControlRequest& req) -> ControlResponse {
        // The readouts parse their options with one parser and render
        // text or JSON from the snapshot's field list; the other ops
        // take no options.
        const bool links = req.op == ControlOp::kLinks;
        if (links || req.op == ControlOp::kStats ||
            req.op == ControlOp::kHealth) {
          auto q = saiyan::gateway::parse_readout_query(req.payload, links);
          if (!q.ok()) return {ControlStatus::kError, q.message()};
          saiyan::obs::FieldList list;
          if (links) {
            saiyan::gateway::describe_links(gw->links(), q.value().links,
                                            list);
          } else if (req.op == ControlOp::kStats) {
            saiyan::gateway::describe(gw->stats(), list);
          } else {
            saiyan::gateway::describe(gw->health(), list);
          }
          return {ControlStatus::kOk,
                  saiyan::obs::render(list, q.value().format)};
        }
        if (!req.payload.empty()) {
          return {ControlStatus::kError, "this op takes no options"};
        }
        switch (req.op) {
          case ControlOp::kStats:
          case ControlOp::kHealth:
          case ControlOp::kLinks:
            break;  // answered above
          case ControlOp::kReload: {
            auto r = do_reload();
            if (!r.ok()) return {ControlStatus::kError, r.message()};
            return {ControlStatus::kOk, "reloaded\n"};
          }
          case ControlOp::kDrain: {
            auto r = gw->drain();
            if (!r.ok()) return {ControlStatus::kError, r.message()};
            return {ControlStatus::kOk, "drained\n"};
          }
          case ControlOp::kMetrics:
            return {ControlStatus::kOk,
                    saiyan::gateway::to_prometheus(gw->stats())};
          case ControlOp::kDumpTrace:
            // Trimmed to fit one control frame; --trace-out gets the
            // full timeline at exit.
            return {ControlStatus::kOk,
                    saiyan::obs::chrome_trace_json(
                        saiyan::daemon::kMaxControlPayload - 4096)};
        }
        return {ControlStatus::kError, "unhandled op"};
      });
  if (!server.ok()) {
    std::fprintf(stderr, "saiyand: %s\n", server.message().c_str());
    return 2;
  }
  std::fprintf(stderr, "saiyand: serving on %s (%zu workers)\n",
               opt.socket_path.c_str(), opt.gateway.workers);

  if (oneshot) {
    if (auto r = gw->drain(); !r.ok()) {
      std::fprintf(stderr, "saiyand: drain: %s\n", r.message().c_str());
      return 1;
    }
    std::fputs(gw->stats().to_text().c_str(), stdout);
    write_trace_out();
    return 0;
  }

  int sigpipe[2];
  if (::pipe(sigpipe) != 0) {
    std::perror("saiyand: pipe");
    return 1;
  }
  g_signal_pipe_w = sigpipe[1];
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGHUP, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  for (;;) {
    pollfd pfd{sigpipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, -1) < 0) {
      if (errno == EINTR) continue;
      std::perror("saiyand: poll");
      break;
    }
    char b = 0;
    if (::read(sigpipe[0], &b, 1) != 1) continue;
    if (b == 'h') {
      auto r = do_reload();
      if (r.ok()) {
        std::fprintf(stderr, "saiyand: SIGHUP: config reloaded\n");
      } else {
        // A bad new config must not take down a serving daemon.
        std::fprintf(stderr, "saiyand: SIGHUP: reload rejected: %s\n",
                     r.message().c_str());
      }
      continue;
    }
    break;  // SIGTERM / SIGINT
  }

  std::fprintf(stderr, "saiyand: draining\n");
  if (auto r = gw->drain(); !r.ok()) {
    std::fprintf(stderr, "saiyand: drain: %s\n", r.message().c_str());
  }
  std::fputs(gw->stats().to_text().c_str(), stdout);
  write_trace_out();
  return 0;
}
