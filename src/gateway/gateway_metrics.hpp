// The field lists of the gateway's readouts (obs/metric_schema.hpp):
// each `stats`, `health` and `links` key and each Prometheus family is
// spelled once, here. Pure functions of a snapshot, testable against
// golden output; the inventory is documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/result.hpp"
#include "gateway/gateway_stats.hpp"
#include "obs/metric_schema.hpp"

namespace saiyan::gateway {

/// Ordering/limit options for the `links` listing.
struct LinkQuery {
  enum class Sort {
    kFrames,    ///< busiest first
    kSnr,       ///< worst EWMA SNR first (triage order)
    kLastSeen,  ///< most recently seen first
    kTag,       ///< tag id, then channel
  };
  Sort sort = Sort::kFrames;
  std::size_t top = 0;  ///< 0 = all links
};

/// Options of a readout op (stats, health, links).
struct ReadoutQuery {
  obs::Format format = obs::Format::kText;
  LinkQuery links;  ///< `links` only
};

/// Parse a readout request payload of whitespace-separated key=value
/// tokens: format=text|json, and with `links` also top=N and
/// sort=frames|snr|last_seen|tag. Any other token is an error.
saiyan::Result<ReadoutQuery> parse_readout_query(std::string_view text,
                                                 bool links);

void describe(const GatewayStats& s, obs::FieldList& out);
void describe(const GatewayHealth& h, obs::FieldList& out);

/// The `links` listing: the registry summary, then
/// `link.<tag>.<channel>.<field>` per link, ordered and limited per `q`.
void describe_links(const obs::LinkRegistrySnapshot& snap,
                    const LinkQuery& q, obs::FieldList& out);

/// Prometheus text exposition (version 0.0.4) of `s`.
std::string to_prometheus(const GatewayStats& s);

/// The `links` listing as `key value` lines.
std::string links_to_text(const obs::LinkRegistrySnapshot& snap,
                          const LinkQuery& q = {});

}  // namespace saiyan::gateway
