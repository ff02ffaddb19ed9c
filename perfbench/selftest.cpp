// Self-test of the benchmark's measurement helpers (bench_util.hpp).
// Exits 1 on the first failed check. Checks stay active in every build
// type (no assert).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(near(percentile(v, 0.0), 1.0));
  CHECK(near(percentile(v, 1.0), 100.0));
  CHECK(near(percentile(v, 0.5), 50.5));
  CHECK(near(percentile(v, 0.9), 90.1));
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(std::isnan(percentile({}, 0.5)));

  // Ten-beyond rule: 100 samples support p90 (exactly ten above it),
  // 99 still do, 90 do not; p99 needs about a thousand.
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(percentile_supported(100, 0.9));
  CHECK(percentile_supported(99, 0.9));
  CHECK(!percentile_supported(90, 0.9));
  CHECK(!percentile_supported(900, 0.99));
  CHECK(percentile_supported(1000, 0.99));
  CHECK(samples_beyond(0, 0.5) == 0);
  CHECK(samples_beyond(1, 0.0) == 0);

  // Windows: as many as keep the minimum size, at least one.
  CHECK(window_count(0, 100) == 1);
  CHECK(window_count(99, 100) == 1);
  CHECK(window_count(250, 100) == 2);
  CHECK(window_count(484, 100) == 4);
  // Three windows of 100: 1..100, a noisy 1001..1100, 201..300. The
  // median of their p90s (90.1, 1090.1, 290.1) ignores the noisy window;
  // pooling them would let it decide the p90.
  std::vector<double> w;
  for (int i = 1; i <= 100; ++i) w.push_back(i);
  for (int i = 1001; i <= 1100; ++i) w.push_back(i);
  for (int i = 201; i <= 300; ++i) w.push_back(i);
  CHECK(near(windowed_percentile(w, 0.9, 100), 290.1));
  CHECK(near(windowed_percentile(w, 0.5, 100), 250.5));
  CHECK(percentile(w, 0.9) > 1000.0);
  // One window: the plain percentile.
  CHECK(near(windowed_percentile(v, 0.9, 100), percentile(v, 0.9)));
}

Span span(const char* name, std::uint32_t parent, std::int64_t a,
          std::int64_t b) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void self_time() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // 40), and [90,120) clipped to [90,100): self = 100 - 40 - 10.
  // A grandchild covers only its parent, never the root.
  const std::vector<Span> spans = {
      span("root", 0, 0, 100), span("a", 1, 10, 30), span("b", 1, 20, 50),
      span("c", 1, 90, 120),   span("d", 2, 12, 28), span("e", 0, 200, 250)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  CHECK(self[0] == 50);
  CHECK(self[1] == 4);   // 20 minus grandchild 16
  CHECK(self[2] == 30);  // leaf
  CHECK(self[4] == 16);
  CHECK(self[5] == 50);  // second root, no children
  CHECK(near(self_seconds(spans, self, "b", 0), 30e-9));
  CHECK(span_count(spans, "root", 0) == 1);

  // A child nested inside another child's interval is still only
  // counted once against the parent.
  const std::vector<Span> nested = {span("p", 0, 0, 10), span("x", 1, 2, 8),
                                    span("y", 1, 3, 4)};
  CHECK(self_times_ns(nested)[0] == 4);
}

void markers() {
  const std::vector<Frame> truth = {
      {1000, {1, 2, 3}}, {5000, {4, 5, 6}}, {5600, {7, 8, 9}}, {9000, {0, 0, 0}}};
  // Off by up to the tolerance still matches; 5000 and 5600 collide.
  const std::vector<Frame> got = {{1003, {1, 2, 3}},
                                  {5001, {4, 5, 6}},
                                  {5598, {7, 8, 1}},
                                  {7000, {1, 1, 1}}};
  const MatchResult m = match_markers(got, truth, 8);
  CHECK(m.exact == 2);
  CHECK(m.wrong_symbols == 1);
  CHECK(m.symbol_errors == 1);
  CHECK(m.false_detections == 1);
  CHECK(m.false_starts.size() == 1 && m.false_starts[0] == 7000);
  CHECK(m.missing.size() == 1 && m.missing[0] == 3);

  // One marker is matched at most once.
  const MatchResult dup =
      match_markers({{1000, {1, 2, 3}}, {1001, {1, 2, 3}}}, truth, 8);
  CHECK(dup.exact == 1 && dup.false_detections == 1);
  CHECK(match_markers({}, truth, 8).missing.size() == truth.size());
}

void names() {
  CHECK(valid_metric_name("realtime_factor"));
  CHECK(valid_metric_name("trace.read_mb_per_s"));
  CHECK(valid_metric_name("0-x"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("_x"));
  CHECK(!valid_metric_name("a b"));
  CHECK(!valid_metric_name("p/s"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(valid_unit("MB/s"));
  CHECK(valid_unit("%"));
  CHECK(!valid_unit("per second"));
  CHECK(!valid_unit(std::string(17, 's')));

  const std::string ok = result_json(true, 3, 0, {{"x.y", 1.5, "ms"}});
  CHECK(ok ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  CHECK(result_json(true, 1, 0, {{"bad name", 1.0, "s"}}).empty());
  CHECK(result_json(true, 1, 0, {{"x", NAN, "s"}}).empty());
}

}  // namespace

int main() {
  percentiles();
  self_time();
  markers();
  names();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
