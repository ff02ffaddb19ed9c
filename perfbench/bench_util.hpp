// Measurement rules of the gateway benchmark, kept free of the library
// so perfbench_selftest can pin them down on their own:
//
//   * percentiles, and the rule that a reported percentile needs at
//     least ten samples beyond it;
//   * spans (name, start, end, parent, job) and a span's self time —
//     its duration minus the part of it its child spans cover;
//   * matching decoded frames against ground-truth markers;
//   * the metric-name and unit charsets the result line must obey.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Samples strictly above the q-quantile position of n samples under
/// linear interpolation between closest ranks (position q·(n-1)).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto pos = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1) + 1e-9));
  return n - 1 - std::min(pos, n - 1);
}

/// A percentile is reported only with at least this many samples
/// beyond it; fewer and one outlier decides it.
inline constexpr std::size_t kMinBeyond = 10;

inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// q-quantile (0 <= q <= 1) by linear interpolation between closest
/// ranks; NaN for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Windows a run's samples are cut into for window_percentiles(): as
/// many as fit with at least `min_window` samples each, and at least one.
inline std::size_t window_count(std::size_t n, std::size_t min_window) {
  return std::max<std::size_t>(1, n / std::max<std::size_t>(1, min_window));
}

/// q-quantile of each of the consecutive windows a run's samples (in
/// the order taken) are cut into: window_count() windows, their sizes
/// differing by at most one.
inline std::vector<double> window_percentiles(const std::vector<double>& in_order,
                                              double q, std::size_t min_window) {
  const std::size_t n = in_order.size();
  const std::size_t w = window_count(n, min_window);
  std::vector<double> out;
  for (std::size_t i = 0; i < w; ++i) {
    const auto b = in_order.begin() + static_cast<std::ptrdiff_t>(i * n / w);
    const auto e = in_order.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / w);
    out.push_back(percentile(std::vector<double>(b, e), q));
  }
  return out;
}

/// q-quantile of a run as the median over its windows' q-quantiles. A few
/// seconds of a noisy host then move one window's value, not the run's,
/// while every window keeps enough samples for q.
inline double windowed_percentile(const std::vector<double>& in_order, double q,
                                  std::size_t min_window) {
  return median(window_percentiles(in_order, q, min_window));
}

// ------------------------------------------------------------------ spans

/// One timed call at a layer boundary. Spans of one benchmark job
/// share `job`; `parent` is the index + 1 of the enclosing span (0 for
/// a root).
struct Span {
  const char* name = "";
  std::uint32_t parent = 0;
  std::uint32_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store; written out once, when the run ends.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Open a span; returns its id (index + 1) for close() and as the
  /// parent of nested spans.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t job) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.job = job;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size());
  }

  void close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on scope exit.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::uint32_t parent,
         std::uint32_t job)
      : rec_(rec), id_(rec.open(name, parent, job)) {}
  ~Scoped() { rec_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

/// Self time of every span: its duration minus the union of its
/// direct children's intervals, each clipped to the span.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(
      spans.size());
  for (const Span& c : spans) {
    if (c.parent == 0) continue;
    const Span& p = spans[c.parent - 1];
    const std::int64_t lo = std::max(c.start_ns, p.start_ns);
    const std::int64_t hi = std::min(c.end_ns, p.end_ns);
    if (hi > lo) cover[c.parent - 1].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>>& iv = cover[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      if (hi <= run_hi) continue;
      covered += hi - std::max(lo, run_hi);
      run_hi = hi;
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Total self time, in seconds, of every span called `name` in `job`.
inline double self_seconds(const std::vector<Span>& spans,
                           const std::vector<std::int64_t>& self,
                           const char* name, std::uint32_t job) {
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].job == job && std::string_view(spans[i].name) == name) {
      ns += self[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

/// Number of spans called `name` in `job`.
inline std::size_t span_count(const std::vector<Span>& spans,
                              const char* name, std::uint32_t job) {
  std::size_t n = 0;
  for (const Span& s : spans) {
    n += s.job == job && std::string_view(s.name) == name;
  }
  return n;
}

/// Chrome/Perfetto trace JSON ('X' complete events, microseconds), the
/// format saiyand --trace-out writes. Each job is one timeline row.
inline bool write_chrome_trace(const std::vector<Span>& spans,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
               "\"pid\":1,\"args\":{\"name\":\"perfbench\"}}");
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"job\":%u}}",
                 s.name, s.job, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3, i + 1, s.parent,
                 s.job);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- marker matching

/// A frame as (first preamble sample, payload symbols) — both what the
/// gateway delivers and what a ground-truth marker records.
struct Frame {
  std::uint64_t start = 0;
  std::vector<std::uint32_t> symbols;

  bool operator==(const Frame&) const = default;
  bool operator<(const Frame& o) const {
    return start != o.start ? start < o.start : symbols < o.symbols;
  }
};

struct MatchResult {
  std::size_t exact = 0;             ///< matched with identical symbols
  std::size_t wrong_symbols = 0;     ///< matched, some symbol differs
  std::size_t false_detections = 0;  ///< no marker within tolerance
  std::size_t symbol_errors = 0;     ///< differing symbols of matches
  std::vector<std::size_t> missing;  ///< indices of unmatched markers
  std::vector<std::uint64_t> false_starts;  ///< starts of false detections
};

/// Match decoded frames to markers (both sorted by start): a frame
/// matches the first unused marker within `tol` samples of its start.
inline MatchResult match_markers(const std::vector<Frame>& frames,
                                 const std::vector<Frame>& markers,
                                 std::uint64_t tol) {
  MatchResult r;
  std::vector<bool> used(markers.size(), false);
  std::size_t lo = 0;
  for (const Frame& f : frames) {
    while (lo < markers.size() && markers[lo].start + tol < f.start) ++lo;
    std::size_t hit = markers.size();
    for (std::size_t m = lo;
         m < markers.size() && markers[m].start <= f.start + tol; ++m) {
      if (!used[m]) {
        hit = m;
        break;
      }
    }
    if (hit == markers.size()) {
      ++r.false_detections;
      r.false_starts.push_back(f.start);
      continue;
    }
    used[hit] = true;
    const std::vector<std::uint32_t>& want = markers[hit].symbols;
    std::size_t errors = want.size() > f.symbols.size()
                             ? want.size() - f.symbols.size()
                             : f.symbols.size() - want.size();
    for (std::size_t i = 0; i < std::min(want.size(), f.symbols.size()); ++i) {
      errors += want[i] != f.symbols[i];
    }
    r.symbol_errors += errors;
    ++(errors == 0 ? r.exact : r.wrong_symbols);
  }
  for (std::size_t m = 0; m < markers.size(); ++m) {
    if (!used[m]) r.missing.push_back(m);
  }
  return r;
}

// ---------------------------------------------------- names and the result

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  for (const char c : s) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units: 1-16 of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Returns "" when a name or
/// unit breaks its charset or a value is not finite.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !std::isfinite(m.value)) {
      return "";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", m.value);
    out += i == 0 ? "\"" : ", \"";
    out += m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
