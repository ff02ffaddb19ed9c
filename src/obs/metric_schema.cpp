#include "obs/metric_schema.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/prometheus.hpp"

namespace saiyan::obs {
namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// `key value` lines or, with `json`, one flat object of the same
/// members. JSON has no NaN or infinity: a non-finite double is null.
std::string render_text(const FieldList& list, bool json) {
  std::string out = json ? "{" : "";
  const char* sep = "\n  ";
  for (const Field& f : list.fields()) {
    const auto* u = std::get_if<std::uint64_t>(&f.value);
    const auto* d = std::get_if<double>(&f.value);
    const auto* str = std::get_if<std::string>(&f.value);
    if (f.key.empty() || (u == nullptr && d == nullptr && str == nullptr)) {
      continue;
    }
    if (json) {
      out += sep;
      sep = ",\n  ";
      append_json_string(out, f.key);
      out += ": ";
    } else {
      out += f.key;
      out += ' ';
    }
    char num[64] = "null";
    if (u != nullptr) {
      std::snprintf(num, sizeof(num), "%" PRIu64, *u);
    } else if (d != nullptr && (!json || std::isfinite(*d))) {
      std::snprintf(num, sizeof(num), "%.3f", *d);
    }
    if (str == nullptr) {
      out += num;
    } else if (json) {
      append_json_string(out, *str);
    } else {
      out += *str;
    }
    if (!json) out += '\n';
  }
  if (json) out += "\n}\n";
  return out;
}

std::string render_prometheus(const FieldList& list) {
  // Exposition wants each family's samples together: families in order
  // of first appearance, samples in list order within one.
  std::vector<std::string_view> families;
  for (const Field& f : list.fields()) {
    if (!f.metric.family.empty() &&
        std::find(families.begin(), families.end(), f.metric.family) ==
            families.end()) {
      families.push_back(f.metric.family);
    }
  }
  constexpr const char* kTypes[] = {"gauge", "counter", "histogram"};
  PromWriter w;
  for (const std::string_view family : families) {
    for (const Field& f : list.fields()) {
      if (f.metric.family != family) continue;
      w.family(family, f.metric.help,
               kTypes[static_cast<std::size_t>(f.metric.kind)]);
      if (const auto* h = std::get_if<HistogramValue>(&f.value)) {
        w.histogram(family, f.labels,
                    std::span<const std::uint64_t, LatencyHistogram::kBuckets>(
                        h->counts.data(), LatencyHistogram::kBuckets),
                    h->sum_us);
      } else if (const auto* u = std::get_if<std::uint64_t>(&f.value)) {
        w.sample(family, f.labels, *u);
      } else if (const auto* d = std::get_if<double>(&f.value)) {
        w.sample(family, f.labels, *d);
      }
    }
  }
  return w.str();
}

}  // namespace

void FieldList::add(const Metric& m, Value v, std::string_view labels) {
  Field f{{}, m, std::move(v), labels_};
  if (!m.key.empty()) f.key = prefix_ + std::string(m.key);
  if (!labels.empty()) {
    if (!f.labels.empty()) f.labels += ',';
    f.labels += labels;
  }
  fields_.push_back(std::move(f));
}

std::string render(const FieldList& list, Format fmt) {
  switch (fmt) {
    case Format::kText: return render_text(list, false);
    case Format::kJson: return render_text(list, true);
    case Format::kPrometheus: return render_prometheus(list);
  }
  return {};
}

}  // namespace saiyan::obs
