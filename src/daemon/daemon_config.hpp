// saiyand config file: flat `key value` lines into a GatewayConfig.
//
//   # saiyand.conf
//   socket /tmp/saiyand.sock
//   workers 4
//   throttle_us 0
//   resync 1
//   subscriber_queue 256
//   sic_depth 1
//   min_score 0.6
//   payload_symbols 16
//   sf 7
//   bandwidth_hz 500e3
//   sample_rate_hz 4e6
//   bits_per_symbol 2
//   mode super
//   trace /var/lib/saiyan/demo.trace   # repeatable
//
// '#' starts a comment; blank lines are skipped. Unknown keys and
// unparsable values fail with "path:LINE: ...", and the assembled
// GatewayConfig goes through GatewayConfig::validate() so a bad value
// is reported by its dotted field path before the daemon starts.
// PHY keys (sf/bandwidth_hz/sample_rate_hz/bits_per_symbol/
// preamble_symbols/mode) rebuild stream.saiyan via SaiyanConfig::make
// so every derived rate stays consistent.
#pragma once

#include <string>
#include <vector>

#include "core/result.hpp"
#include "gateway/gateway_config.hpp"

namespace saiyan::daemon {

struct DaemonOptions {
  std::string config_path;  ///< re-read on SIGHUP ("" = none given)
  std::string socket_path = "/tmp/saiyand.sock";
  std::vector<std::string> traces;  ///< enqueued at startup
  gateway::GatewayConfig gateway;
};

/// Parse + validate a config file. Errors carry "path:LINE:" context
/// for syntax problems and the dotted field path for range problems.
saiyan::Result<DaemonOptions> load_daemon_config(const std::string& path);

}  // namespace saiyan::daemon
