// Golden readouts (ctest label: unit).
//
// The `stats`, `health` and `links` payloads, the Prometheus `metrics`
// payload and the recovery report of the fixed snapshots in
// metric_fixtures.hpp, compared with the files in tests/golden/. Line
// order is free: the sorted sets of lines must match, so every text
// key, Prometheus family, label set, HELP string and value is pinned.
//
// Run with SAIYAN_UPDATE_GOLDEN=1 to rewrite the files from the
// current output instead of comparing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gateway/gateway_metrics.hpp"
#include "gateway/gateway_stats.hpp"
#include "metric_fixtures.hpp"
#include "stream/trace_segments.hpp"

namespace saiyan {
namespace {

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path() / "golden" / name;
  if (std::getenv("SAIYAN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  const std::vector<std::string> want = sorted_lines(golden.str());
  const std::vector<std::string> got = sorted_lines(actual);
  std::vector<std::string> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  for (const std::string& l : missing) ADD_FAILURE() << name << " lost: " << l;
  for (const std::string& l : extra) ADD_FAILURE() << name << " gained: " << l;
}

TEST(MetricGolden, StatsText) {
  expect_golden("stats.txt", fixtures::full_gateway_stats().to_text());
}

TEST(MetricGolden, StatsPrometheus) {
  expect_golden("metrics.prom",
                gateway::to_prometheus(fixtures::full_gateway_stats()));
}

// A fresh gateway: no stages, no links and no noise floor yet, so the
// text omits noise_floor_dbm and Prometheus reports the -200 sentinel.
TEST(MetricGolden, EmptySnapshots) {
  expect_golden("stats_empty.txt", gateway::GatewayStats{}.to_text());
  expect_golden("metrics_empty.prom",
                gateway::to_prometheus(gateway::GatewayStats{}));
  expect_golden("links_empty.txt",
                gateway::links_to_text(obs::LinkRegistrySnapshot{}));
}

TEST(MetricGolden, HealthText) {
  expect_golden("health.txt", fixtures::full_gateway_health().to_text());
}

TEST(MetricGolden, LinksText) {
  const obs::LinkRegistrySnapshot snap = fixtures::full_link_registry();
  expect_golden("links.txt", gateway::links_to_text(snap));
  gateway::LinkQuery q;
  q.sort = gateway::LinkQuery::Sort::kSnr;
  q.top = 2;
  expect_golden("links_top2_snr.txt", gateway::links_to_text(snap, q));
}

TEST(MetricGolden, RecoveryReportText) {
  expect_golden("recovery.txt", fixtures::full_recovery_report().to_text());
}

}  // namespace
}  // namespace saiyan
