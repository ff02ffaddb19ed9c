// saiyand control wire protocol (documented in docs/GATEWAY.md).
//
// Length-prefixed frames over a unix domain socket, little-endian:
//
//   request:  u32 length | u8 op     | payload[length - 1]
//   response: u32 length | u8 status | payload[length - 1]
//
// `length` covers the op/status byte plus the payload. Ops: stats = 1,
// health = 4 and links = 7 answer with the `key value` readouts of
// GatewayStats, GatewayHealth (watchdog liveness + degradation ladder)
// and the link-telescope registry, rendered by the daemon from their
// field lists (gateway/gateway_metrics.hpp); their request payload
// holds key=value options parsed by gateway::parse_readout_query
// (format=text|json; top=N sort=KEY on links). reload = 2 (re-read
// the config file and swap the serving config; in-flight jobs are
// untouched), drain = 3 (block until every queued job and subscriber
// queue is empty), metrics = 5 (Prometheus text exposition of the
// stats snapshot) and dump_trace = 6 (Chrome trace-event JSON from the
// flight recorder, trimmed to fit the payload cap;
// "{\"traceEvents\":[]}" when tracing is off or compiled out) take no
// options. An unknown option is an error. status: 0 = ok, 1 = error
// (the payload is the error message).
//
// Hostile-input posture matches the trace reader: a declared length is
// bounded (kMaxControlPayload) before anything is allocated, and a
// short read is an error, never a hang on garbage.
//
// The byte-level codec is separated from the fd-level framed I/O so
// the protocol round-trips under test without a socket.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/result.hpp"

namespace saiyan::daemon {

enum class ControlOp : std::uint8_t {
  kStats = 1,
  kReload = 2,
  kDrain = 3,
  kHealth = 4,
  kMetrics = 5,
  kDumpTrace = 6,
  kLinks = 7,
};

enum class ControlStatus : std::uint8_t {
  kOk = 0,
  kError = 1,
};

/// Frame body cap: a corrupted or adversarial length field must not
/// translate into an absurd allocation.
inline constexpr std::size_t kMaxControlPayload = 1u << 20;

struct ControlRequest {
  ControlOp op = ControlOp::kStats;
  std::string payload;
};

struct ControlResponse {
  ControlStatus status = ControlStatus::kOk;
  std::string payload;
};

/// Byte-level codec (framing included): encode_* yields the complete
/// wire frame; decode_* consumes exactly one complete frame.
std::string encode_request(const ControlRequest& req);
std::string encode_response(const ControlResponse& resp);
saiyan::Result<ControlRequest> decode_request(std::string_view frame);
saiyan::Result<ControlResponse> decode_response(std::string_view frame);

/// Blocking fd-level framed I/O (retries EINTR, handles short
/// reads/writes). read_frame returns one complete frame — length
/// prefix included, validated against kMaxControlPayload before the
/// body is allocated — ready for decode_request()/decode_response().
saiyan::Result<Unit> write_all(int fd, std::string_view bytes);
saiyan::Result<std::string> read_frame(int fd);

}  // namespace saiyan::daemon
