#include "gateway/gateway_config.hpp"

#include <stdexcept>
#include <string>

namespace saiyan::gateway {

namespace {

saiyan::Error bad_field(const char* path, const std::string& why) {
  return saiyan::Error{std::string(path) + ": " + why};
}

}  // namespace

saiyan::Result<Unit> GatewayConfig::validate() const {
  try {
    stream.saiyan.phy.validate();
  } catch (const std::invalid_argument& err) {
    return bad_field("stream.saiyan.phy", err.what());
  }
  if (stream.payload_symbols == 0 || stream.payload_symbols > (1u << 16)) {
    return bad_field("stream.payload_symbols", "must be in [1, 65536]");
  }
  if (!(stream.min_score > 0.0) || stream.min_score > 1.0) {
    return bad_field("stream.min_score", "must be in (0, 1]");
  }
  if (stream.sic.depth > 16) {
    return bad_field("stream.sic.depth", "must be <= 16");
  }
  if (!(stream.sic.redetect_min_score > 0.0) ||
      stream.sic.redetect_min_score > 1.0) {
    return bad_field("stream.sic.redetect_min_score", "must be in (0, 1]");
  }
  if (workers == 0 || workers > 256) {
    return bad_field("workers", "must be in [1, 256]");
  }
  if (limits.subscriber_queue == 0) {
    return bad_field("limits.subscriber_queue", "must be >= 1");
  }
  if (watchdog.poll_ms == 0 || watchdog.poll_ms > 60'000) {
    return bad_field("watchdog.poll_ms", "must be in [1, 60000]");
  }
  if (degradation.backlog_low > degradation.backlog_high) {
    return bad_field("degradation.backlog_low",
                     "must be <= degradation.backlog_high");
  }
  if (degradation.p99_low_us > degradation.p99_high_us) {
    return bad_field("degradation.p99_low_us",
                     "must be <= degradation.p99_high_us");
  }
  if (degradation.escalate_after == 0) {
    return bad_field("degradation.escalate_after", "must be >= 1");
  }
  if (degradation.deescalate_after == 0) {
    return bad_field("degradation.deescalate_after", "must be >= 1");
  }
  if (link.capacity == 0 || link.capacity > (1u << 20)) {
    return bad_field("link.capacity", "must be in [1, 1048576]");
  }
  if (link.prom_top_k == 0 || link.prom_top_k > 64) {
    return bad_field("link.prom_top_k",
                     "must be in [1, 64] (scrape cardinality bound)");
  }
  return Unit{};
}

}  // namespace saiyan::gateway
