// Minimal Prometheus text-exposition (version 0.0.4) writer.
//
// Just enough of the format for the gateway's `metrics` control op:
// `# HELP` / `# TYPE` headers, counter/gauge samples with optional
// labels, and histograms rendered from a LatencyHistogram's log2
// buckets as cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`. The writer enforces the exposition invariants the smoke
// lane's parser checks: one HELP/TYPE pair per family, emitted before
// any of its samples, all samples of a family contiguous.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/latency_histogram.hpp"

namespace saiyan::obs {

class PromWriter {
 public:
  /// Start a metric family: emits `# HELP` and `# TYPE` lines. `type`
  /// is "counter", "gauge", or "histogram". Repeated calls for the
  /// same consecutive family (labeled series) emit the header once.
  void family(std::string_view name, std::string_view help,
              std::string_view type);

  /// One sample line: `name{labels} value`. `labels` is the
  /// pre-rendered label body without braces (e.g. `stage="scan"`),
  /// empty for an unlabeled sample.
  void sample(std::string_view name, std::string_view labels,
              std::uint64_t value);
  void sample(std::string_view name, std::string_view labels, double value);

  /// Render one LatencyHistogram as a Prometheus histogram series
  /// under `name` (the family must already be declared with type
  /// "histogram"). Emits a cumulative `_bucket` line per log2
  /// boundary (le = bucket upper edge in µs, last is +Inf), then
  /// `_sum` (µs) and `_count`.
  void histogram(std::string_view name, std::string_view labels,
                 std::span<const std::uint64_t, LatencyHistogram::kBuckets>
                     counts,
                 std::uint64_t sum_us);

  const std::string& str() const { return out_; }

 private:
  void sample_line_(std::string_view name, std::string_view labels,
                    std::string_view extra_label, std::string_view value);

  std::string out_;
  std::string last_family_;
};

}  // namespace saiyan::obs
