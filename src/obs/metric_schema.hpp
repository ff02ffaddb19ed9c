// One field list per readout, three writers.
//
// A readout (`stats`, `health`, `links`, the Prometheus `metrics` page)
// is a list of fields, each naming its text key, its Prometheus family
// (or none), its kind, its help text and its value in one place. The
// writers turn a list into `key value` text, a flat JSON object of the
// same keys and values, or Prometheus exposition via PromWriter, with
// samples grouped by family in order of first appearance. The fields
// of one part of a snapshot (a stage, worker or link) get a key prefix
// (`stage.scan.`) and a label set (`stage="scan"`). For readers only:
// nothing here runs on the serving path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/latency_histogram.hpp"

namespace saiyan::obs {

/// The Prometheus TYPE of a field's family.
enum class Kind : std::uint8_t { kGauge, kCounter, kHistogram };

/// How a field is named and explained; the value travels beside it.
/// Its strings are literals (or static tables), never snapshot data.
struct Metric {
  std::string_view key = {};     ///< text/JSON key in scope; empty = none
  std::string_view family = {};  ///< Prometheus family; empty = none
  Kind kind = Kind::kGauge;
  std::string_view help = {};
};

/// Raw log2 bucket counts (LatencyHistogram::kBuckets of them) and sum,
/// rendered as cumulative `le` series.
struct HistogramValue {
  std::vector<std::uint64_t> counts;
  std::uint64_t sum_us = 0;
};

/// Copied out of the snapshot, so a list may outlive it. No value
/// (std::monostate) declares a family without a sample, so a labeled
/// family over an empty part (no links yet) still shows HELP and TYPE.
using Value = std::variant<std::monostate, std::uint64_t, double,
                           std::string, HistogramValue>;

struct Field {
  std::string key;     ///< scope prefix + Metric::key; empty = none
  Metric metric;
  Value value;
  std::string labels;  ///< scope labels + the field's own labels
};

/// The fields of one snapshot, in list order.
class FieldList {
 public:
  /// Add a field under the current scope. `labels` (e.g. `kind="gaps"`)
  /// are appended to the scope's label set on the Prometheus sample.
  void add(const Metric& m, Value v, std::string_view labels = {});

  /// Start a part (one stage, worker, link): fields added from now on
  /// get `prefix` before their key and `labels` on their Prometheus
  /// samples. part() with no arguments returns to the top level.
  void part(std::string prefix = {}, std::string labels = {}) {
    prefix_ = std::move(prefix);
    labels_ = std::move(labels);
  }

  const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
  std::string prefix_;
  std::string labels_;
};

enum class Format : std::uint8_t { kText, kJson, kPrometheus };

std::string render(const FieldList& list, Format fmt);

/// Render any snapshot with a describe(const T&, FieldList&) overload.
template <typename T>
std::string render(const T& snapshot, Format fmt) {
  FieldList list;
  describe(snapshot, list);
  return render(list, fmt);
}

}  // namespace saiyan::obs
