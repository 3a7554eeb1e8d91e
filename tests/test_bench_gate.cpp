// Tests for the bench_micro regression gate (tools/bench_gate_lib): parsing
// google-benchmark JSON exports, matching by name, the noise floor, and the
// synthetic-regression negative test the CI gate depends on.
#include <gtest/gtest.h>

#include <string>

#include "bench_gate_lib.hpp"

namespace cusfft::tools {
namespace {

/// Builds a minimal --benchmark_out document from (name, cpu_time_ns) pairs.
std::string bench_json(
    const std::vector<std::pair<std::string, double>>& entries,
    const std::string& time_unit = "ns") {
  std::string s = R"({"context": {"date": "x"}, "benchmarks": [)";
  bool first = true;
  for (const auto& [name, cpu] : entries) {
    if (!first) s += ",";
    first = false;
    s += R"({"name": ")" + name + R"(", "run_type": "iteration",)" +
         R"( "iterations": 100, "real_time": )" + std::to_string(cpu) +
         R"(, "cpu_time": )" + std::to_string(cpu) + R"(, "time_unit": ")" +
         time_unit + R"("})";
  }
  s += "]}";
  return s;
}

TEST(BenchGate, ParsesBenchmarkOutDocument) {
  const auto s = summarize_benchmark_json(
      bench_json({{"BM_A", 1000.0}, {"BM_B", 2000.0}}));
  ASSERT_TRUE(s.ok) << s.error;
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.entries[0].name, "BM_A");
  EXPECT_DOUBLE_EQ(s.entries[0].cpu_time_ns, 1000.0);
  EXPECT_EQ(s.entries[0].iterations, 100u);
}

TEST(BenchGate, NormalizesTimeUnits) {
  const auto s =
      summarize_benchmark_json(bench_json({{"BM_A", 1.5}}, "ms"));
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_DOUBLE_EQ(s.entries[0].cpu_time_ns, 1.5e6);
}

TEST(BenchGate, KeepsMedianAggregatesOnly) {
  const std::string doc = R"({"benchmarks": [
    {"name": "BM_A", "run_type": "iteration", "cpu_time": 999.0,
     "real_time": 999.0, "iterations": 10, "time_unit": "ns"},
    {"name": "BM_A_mean", "run_type": "aggregate", "aggregate_name": "mean",
     "cpu_time": 1100.0, "real_time": 1100.0, "iterations": 3,
     "time_unit": "ns"},
    {"name": "BM_A_median", "run_type": "aggregate",
     "aggregate_name": "median", "cpu_time": 1000.0, "real_time": 1000.0,
     "iterations": 3, "time_unit": "ns"}]})";
  const auto s = summarize_benchmark_json(doc);
  ASSERT_TRUE(s.ok) << s.error;
  // With aggregates present, only the median survives — renamed to the
  // plain benchmark name so repeated and single runs compare directly.
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(s.entries[0].name, "BM_A");
  EXPECT_DOUBLE_EQ(s.entries[0].cpu_time_ns, 1000.0);
}

TEST(BenchGate, RejectsNonBenchmarkDocuments) {
  EXPECT_FALSE(summarize_benchmark_json("not json").ok);
  EXPECT_FALSE(summarize_benchmark_json(R"({"foo": 1})").ok);
  EXPECT_FALSE(summarize_benchmark_json(R"({"benchmarks": []})").ok);
}

TEST(BenchGate, SyntheticRegressionIsFlagged) {
  // The CI negative test in library form: a 4x slowdown on one benchmark
  // must push worst_regression_frac past any sane threshold.
  const auto base = summarize_benchmark_json(
      bench_json({{"BM_A", 1000.0}, {"BM_B", 2000.0}}));
  const auto next = summarize_benchmark_json(
      bench_json({{"BM_A", 4000.0}, {"BM_B", 2000.0}}));
  ASSERT_TRUE(base.ok && next.ok);
  const auto r = gate_benchmarks(base, next, /*noise_floor_ns=*/500.0);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].name, "BM_A");  // sorted worst-first
  EXPECT_NEAR(r.rows[0].frac, 3.0, 1e-12);
  EXPECT_NEAR(r.worst_regression_frac, 3.0, 1e-12);
  EXPECT_GT(r.worst_regression_frac, 2.5);  // CI threshold
}

TEST(BenchGate, ImprovementsNeverRaiseWorstRegression) {
  const auto base = summarize_benchmark_json(
      bench_json({{"BM_A", 8000.0}, {"BM_B", 2000.0}}));
  const auto next = summarize_benchmark_json(
      bench_json({{"BM_A", 1000.0}, {"BM_B", 2100.0}}));
  const auto r = gate_benchmarks(base, next, 500.0);
  // BM_A improved 8x; BM_B regressed 5%. Worst regression is the 5%.
  EXPECT_NEAR(r.worst_regression_frac, 0.05, 1e-12);
}

TEST(BenchGate, NoiseFloorExemptsFastBenchmarks) {
  // A 10x slip on a 2 ns benchmark is timer noise, not a regression.
  const auto base = summarize_benchmark_json(
      bench_json({{"BM_Tiny", 2.0}, {"BM_Big", 10000.0}}));
  const auto next = summarize_benchmark_json(
      bench_json({{"BM_Tiny", 20.0}, {"BM_Big", 10500.0}}));
  const auto r = gate_benchmarks(base, next, 500.0);
  EXPECT_NEAR(r.worst_regression_frac, 0.05, 1e-12);
  for (const auto& row : r.rows)
    if (row.name == "BM_Tiny") {
      EXPECT_FALSE(row.gated);
    }
}

TEST(BenchGate, TracksMissingAndNewBenchmarks) {
  const auto base = summarize_benchmark_json(
      bench_json({{"BM_A", 1000.0}, {"BM_Gone", 1000.0}}));
  const auto next = summarize_benchmark_json(
      bench_json({{"BM_A", 1000.0}, {"BM_Fresh", 1000.0}}));
  const auto r = gate_benchmarks(base, next, 500.0);
  ASSERT_EQ(r.only_base.size(), 1u);
  EXPECT_EQ(r.only_base[0], "BM_Gone");
  ASSERT_EQ(r.only_new.size(), 1u);
  EXPECT_EQ(r.only_new[0], "BM_Fresh");
  EXPECT_NEAR(r.worst_regression_frac, 0.0, 1e-12);
}

}  // namespace
}  // namespace cusfft::tools
