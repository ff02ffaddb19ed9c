#include "daemon/daemon_config.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

namespace saiyan::daemon {

namespace {

saiyan::Error at(const std::string& path, std::size_t lineno,
                 const std::string& why) {
  return saiyan::Error{path + ":" + std::to_string(lineno) + ": " + why};
}

// `end` points into `s`, so the string must outlive the check.
bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  const std::string s(v);
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = x;
  return true;
}

bool parse_f64(std::string_view v, double& out) {
  if (v.empty()) return false;
  const std::string s(v);
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  out = x;
  return true;
}

}  // namespace

saiyan::Result<DaemonOptions> load_daemon_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open config file: " + path);
  DaemonOptions opt;
  opt.config_path = path;
  lora::PhyParams phy = opt.gateway.stream.saiyan.phy;
  core::Mode mode = opt.gateway.stream.saiyan.mode;
  bool phy_touched = false;

  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view sv(raw);
    if (const auto hash = sv.find('#'); hash != std::string_view::npos) {
      sv = sv.substr(0, hash);
    }
    std::istringstream ls{std::string(sv)};
    std::string key, value, extra;
    if (!(ls >> key)) continue;  // blank / comment-only line
    if (!(ls >> value)) return at(path, lineno, "key '" + key + "' has no value");
    if (ls >> extra) return at(path, lineno, "trailing token '" + extra + "'");

    std::uint64_t u = 0;
    double f = 0.0;
    auto want_u64 = [&]() -> bool { return parse_u64(value, u); };
    auto want_f64 = [&]() -> bool { return parse_f64(value, f); };

    if (key == "socket") {
      opt.socket_path = value;
    } else if (key == "trace") {
      opt.traces.push_back(value);
    } else if (key == "workers") {
      if (!want_u64()) return at(path, lineno, "workers: not an integer");
      opt.gateway.workers = static_cast<std::size_t>(u);
    } else if (key == "throttle_us") {
      if (!want_u64()) return at(path, lineno, "throttle_us: not an integer");
      opt.gateway.throttle_us = u;
    } else if (key == "resync") {
      if (!want_u64() || u > 1) return at(path, lineno, "resync: expected 0 or 1");
      opt.gateway.resync = u != 0;
    } else if (key == "subscriber_queue") {
      if (!want_u64()) {
        return at(path, lineno, "subscriber_queue: not an integer");
      }
      opt.gateway.limits.subscriber_queue = static_cast<std::size_t>(u);
    } else if (key == "sic_shed_queue") {
      if (!want_u64()) return at(path, lineno, "sic_shed_queue: not an integer");
      opt.gateway.stream.sic.shed_queue = static_cast<std::size_t>(u);
    } else if (key == "sic_max_rescan_queue") {
      if (!want_u64()) {
        return at(path, lineno, "sic_max_rescan_queue: not an integer");
      }
      opt.gateway.stream.sic.max_rescan_queue = static_cast<std::size_t>(u);
    } else if (key == "watchdog_poll_ms") {
      if (!want_u64()) {
        return at(path, lineno, "watchdog_poll_ms: not an integer");
      }
      opt.gateway.watchdog.poll_ms = u;
    } else if (key == "watchdog_heartbeat_timeout_ms") {
      if (!want_u64()) {
        return at(path, lineno,
                  "watchdog_heartbeat_timeout_ms: not an integer");
      }
      opt.gateway.watchdog.heartbeat_timeout_ms = u;
    } else if (key == "watchdog_job_deadline_ms") {
      if (!want_u64()) {
        return at(path, lineno, "watchdog_job_deadline_ms: not an integer");
      }
      opt.gateway.watchdog.job_deadline_ms = u;
    } else if (key == "degradation") {
      if (!want_u64() || u > 1) {
        return at(path, lineno, "degradation: expected 0 or 1");
      }
      opt.gateway.degradation.enabled = u != 0;
    } else if (key == "degradation_backlog_high") {
      if (!want_u64()) {
        return at(path, lineno, "degradation_backlog_high: not an integer");
      }
      opt.gateway.degradation.backlog_high = static_cast<std::size_t>(u);
    } else if (key == "degradation_backlog_low") {
      if (!want_u64()) {
        return at(path, lineno, "degradation_backlog_low: not an integer");
      }
      opt.gateway.degradation.backlog_low = static_cast<std::size_t>(u);
    } else if (key == "degradation_p99_high_us") {
      if (!want_u64()) {
        return at(path, lineno, "degradation_p99_high_us: not an integer");
      }
      opt.gateway.degradation.p99_high_us = u;
    } else if (key == "degradation_p99_low_us") {
      if (!want_u64()) {
        return at(path, lineno, "degradation_p99_low_us: not an integer");
      }
      opt.gateway.degradation.p99_low_us = u;
    } else if (key == "degradation_escalate_after") {
      if (!want_u64()) {
        return at(path, lineno, "degradation_escalate_after: not an integer");
      }
      opt.gateway.degradation.escalate_after = static_cast<std::uint32_t>(u);
    } else if (key == "degradation_deescalate_after") {
      if (!want_u64()) {
        return at(path, lineno,
                  "degradation_deescalate_after: not an integer");
      }
      opt.gateway.degradation.deescalate_after =
          static_cast<std::uint32_t>(u);
    } else if (key == "sic_depth") {
      if (!want_u64()) return at(path, lineno, "sic_depth: not an integer");
      opt.gateway.stream.sic.depth = static_cast<std::size_t>(u);
    } else if (key == "min_score") {
      if (!want_f64()) return at(path, lineno, "min_score: not a number");
      opt.gateway.stream.min_score = f;
    } else if (key == "payload_symbols") {
      if (!want_u64()) {
        return at(path, lineno, "payload_symbols: not an integer");
      }
      opt.gateway.stream.payload_symbols = static_cast<std::size_t>(u);
    } else if (key == "seed") {
      if (!want_u64()) return at(path, lineno, "seed: not an integer");
      opt.gateway.stream.seed = u;
    } else if (key == "seed_by_offset") {
      if (!want_u64() || u > 1) {
        return at(path, lineno, "seed_by_offset: expected 0 or 1");
      }
      opt.gateway.stream.seed_by_offset = u != 0;
    } else if (key == "sf") {
      if (!want_u64()) return at(path, lineno, "sf: not an integer");
      phy.spreading_factor = static_cast<int>(u);
      phy_touched = true;
    } else if (key == "bandwidth_hz") {
      if (!want_f64()) return at(path, lineno, "bandwidth_hz: not a number");
      phy.bandwidth_hz = f;
      phy_touched = true;
    } else if (key == "sample_rate_hz") {
      if (!want_f64()) return at(path, lineno, "sample_rate_hz: not a number");
      phy.sample_rate_hz = f;
      phy_touched = true;
    } else if (key == "bits_per_symbol") {
      if (!want_u64()) {
        return at(path, lineno, "bits_per_symbol: not an integer");
      }
      phy.bits_per_symbol = static_cast<int>(u);
      phy_touched = true;
    } else if (key == "preamble_symbols") {
      if (!want_u64()) {
        return at(path, lineno, "preamble_symbols: not an integer");
      }
      phy.preamble_symbols = static_cast<int>(u);
      phy_touched = true;
    } else if (key == "mode") {
      if (value == "vanilla") {
        mode = core::Mode::kVanilla;
      } else if (value == "freq-shifting") {
        mode = core::Mode::kFrequencyShifting;
      } else if (value == "super") {
        mode = core::Mode::kSuper;
      } else {
        return at(path, lineno,
                  "mode: expected vanilla, freq-shifting, or super");
      }
      phy_touched = true;
    } else {
      return at(path, lineno, "unknown key '" + key + "'");
    }
  }

  if (phy_touched) {
    try {
      opt.gateway.stream.saiyan = core::SaiyanConfig::make(phy, mode);
    } catch (const std::exception& err) {
      return fail(path + ": " + err.what());
    }
  }
  if (auto v = opt.gateway.validate(); !v.ok()) {
    return fail(path + ": " + v.message());
  }
  return opt;
}

}  // namespace saiyan::daemon
