#include "obs/prometheus.hpp"

#include <cinttypes>
#include <cstdio>

namespace saiyan::obs {
namespace {

// HELP text may not contain a raw newline or backslash.
void append_help_escaped(std::string& out, std::string_view help) {
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

void PromWriter::family(std::string_view name, std::string_view help,
                        std::string_view type) {
  if (last_family_ == name) return;  // labeled series share one header
  last_family_.assign(name);
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  append_help_escaped(out_, help);
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PromWriter::sample_line_(std::string_view name, std::string_view labels,
                              std::string_view extra_label,
                              std::string_view value) {
  out_ += name;
  if (!labels.empty() || !extra_label.empty()) {
    out_ += '{';
    out_ += labels;
    if (!labels.empty() && !extra_label.empty()) out_ += ',';
    out_ += extra_label;
    out_ += '}';
  }
  out_ += ' ';
  out_ += value;
  out_ += '\n';
}

void PromWriter::sample(std::string_view name, std::string_view labels,
                        std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  sample_line_(name, labels, {}, buf);
}

void PromWriter::sample(std::string_view name, std::string_view labels,
                        double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  sample_line_(name, labels, {}, buf);
}

void PromWriter::histogram(
    std::string_view name, std::string_view labels,
    std::span<const std::uint64_t, LatencyHistogram::kBuckets> counts,
    std::uint64_t sum_us) {
  std::string bucket_name(name);
  bucket_name += "_bucket";
  std::uint64_t cum = 0;
  char le[48];
  char val[24];
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cum += counts[i];
    if (i + 1 == LatencyHistogram::kBuckets) {
      std::snprintf(le, sizeof(le), "le=\"+Inf\"");
    } else {
      std::snprintf(le, sizeof(le), "le=\"%" PRIu64 "\"",
                    LatencyHistogram::bucket_upper_us(i));
    }
    std::snprintf(val, sizeof(val), "%" PRIu64, cum);
    sample_line_(bucket_name, labels, le, val);
  }
  std::snprintf(val, sizeof(val), "%" PRIu64, sum_us);
  std::string part(name);
  part += "_sum";
  sample_line_(part, labels, {}, val);
  part.assign(name);
  part += "_count";
  std::snprintf(val, sizeof(val), "%" PRIu64, cum);
  sample_line_(part, labels, {}, val);
}

}  // namespace saiyan::obs
