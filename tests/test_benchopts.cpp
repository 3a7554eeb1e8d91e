// Tests for the bench harness options: CLI parsing, env overrides, and the
// paper-regime parameter derivation the figure benches share.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "core/json_lite.hpp"

namespace cusfft::bench {
namespace {

TEST(BenchOpts, DefaultsAndCliOverrides) {
  const char* argv[] = {"bench",      "--min-logn", "19", "--max-logn",
                        "21",         "--k",        "64", "--seed",
                        "777",        "--fixed-logn", "20"};
  const auto o = BenchOpts::parse(static_cast<int>(std::size(argv)),
                                  const_cast<char**>(argv));
  EXPECT_EQ(o.min_logn, 19u);
  EXPECT_EQ(o.max_logn, 21u);
  EXPECT_EQ(o.k, 64u);
  EXPECT_EQ(o.seed, 777u);
  EXPECT_EQ(o.fixed_logn, 20u);
}

TEST(BenchOpts, DevicesFlagEnvAndClamp) {
  ::unsetenv("CUSFFT_DEVICES");
  const char* none[] = {"bench"};
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).devices, 1u);

  const char* argv[] = {"bench", "--devices", "4"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .devices,
            4u);

  ::setenv("CUSFFT_DEVICES", "2", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).devices, 2u);
  ::unsetenv("CUSFFT_DEVICES");

  // 0 devices is meaningless: clamp back to one.
  const char* zero[] = {"bench", "--devices", "0"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(zero)),
                             const_cast<char**>(zero))
                .devices,
            1u);
}

TEST(BenchOpts, NodesFlagEnvAndClamp) {
  ::unsetenv("CUSFFT_NODES");
  const char* none[] = {"bench"};
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nodes, 1u);

  const char* argv[] = {"bench", "--nodes", "4"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .nodes,
            4u);

  // The environment is re-read on every parse (no latching).
  ::setenv("CUSFFT_NODES", "2", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nodes, 2u);
  ::setenv("CUSFFT_NODES", "3", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nodes, 3u);
  ::unsetenv("CUSFFT_NODES");
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nodes, 1u);

  // 0 nodes is meaningless: clamp back to one.
  const char* zero[] = {"bench", "--nodes", "0"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(zero)),
                             const_cast<char**>(zero))
                .nodes,
            1u);
}

TEST(BenchOpts, NicGbpsFlagAndEnv) {
  ::unsetenv("CUSFFT_NIC_GBPS");
  const char* none[] = {"bench"};
  EXPECT_DOUBLE_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nic_gbps,
                   0.0);  // 0 = NicModel default

  const char* argv[] = {"bench", "--nic-gbps", "40"};
  EXPECT_DOUBLE_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                                    const_cast<char**>(argv))
                       .nic_gbps,
                   40.0);

  ::setenv("CUSFFT_NIC_GBPS", "12.5", 1);
  EXPECT_DOUBLE_EQ(BenchOpts::parse(1, const_cast<char**>(none)).nic_gbps,
                   12.5);
  // The flag wins over the environment (flags parse after env).
  EXPECT_DOUBLE_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                                    const_cast<char**>(argv))
                       .nic_gbps,
                   40.0);
  ::unsetenv("CUSFFT_NIC_GBPS");
}

TEST(BenchOpts, MaxClampedToMin) {
  const char* argv[] = {"bench", "--min-logn", "22", "--max-logn", "18"};
  const auto o = BenchOpts::parse(static_cast<int>(std::size(argv)),
                                  const_cast<char**>(argv));
  EXPECT_EQ(o.max_logn, o.min_logn);
}

TEST(BenchOpts, EnvOverrides) {
  ::setenv("CUSFFT_K", "123", 1);
  ::setenv("CUSFFT_OUT_DIR", "somewhere", 1);
  const char* argv[] = {"bench"};
  const auto o = BenchOpts::parse(1, const_cast<char**>(argv));
  EXPECT_EQ(o.k, 123u);
  EXPECT_EQ(o.out_dir, "somewhere");
  ::unsetenv("CUSFFT_K");
  ::unsetenv("CUSFFT_OUT_DIR");
}

TEST(BenchOpts, ProfileFlagRegistersPath) {
  ::unsetenv("CUSFFT_PROFILE");
  const char* argv[] = {"bench", "--profile", "/tmp/trace.json"};
  const auto o = BenchOpts::parse(static_cast<int>(std::size(argv)),
                                  const_cast<char**>(argv));
  EXPECT_EQ(o.profile, "/tmp/trace.json");
  EXPECT_EQ(profile_path(), "/tmp/trace.json");

  // No flag, no env: parse() clears the registered path again.
  const char* none[] = {"bench"};
  const auto o2 = BenchOpts::parse(1, const_cast<char**>(none));
  EXPECT_TRUE(o2.profile.empty());
  EXPECT_TRUE(profile_path().empty());
}

TEST(BenchOpts, JsonFlagAndEnv) {
  ::unsetenv("CUSFFT_JSON");
  const char* argv[] = {"bench", "--json", "/tmp/results.json"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .json,
            "/tmp/results.json");

  ::setenv("CUSFFT_JSON", "/tmp/env_results.json", 1);
  const char* none[] = {"bench"};
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).json,
            "/tmp/env_results.json");
  ::unsetenv("CUSFFT_JSON");

  const char* cleared[] = {"bench"};
  EXPECT_TRUE(BenchOpts::parse(1, const_cast<char**>(cleared)).json.empty());
}

TEST(BenchJson, WriteResultsRoundTripsThroughJsonLite) {
  const std::string path = "/tmp/cusfft_bench_json_test.json";
  ASSERT_TRUE(write_results_json(
      path, "throughput",
      {{"execute", 12.5, 3.25}, {"many_pipelined", 10.0, 2.5}}));

  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(ss.str(), doc, &err)) << err;
  EXPECT_EQ(doc.string_or("bench", ""), "throughput");
  const json::Value* results = doc.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 2u);
  EXPECT_EQ(results->array[0].string_or("name", ""), "execute");
  EXPECT_DOUBLE_EQ(results->array[0].number_or("host_ms", 0), 12.5);
  EXPECT_DOUBLE_EQ(results->array[1].number_or("model_ms", 0), 2.5);
  std::remove(path.c_str());
}

TEST(BenchOpts, MetricsFlagAndEnv) {
  ::unsetenv("CUSFFT_METRICS");
  const char* none[] = {"bench"};
  EXPECT_TRUE(
      BenchOpts::parse(1, const_cast<char**>(none)).metrics.empty());

  const char* argv[] = {"bench", "--metrics", "/tmp/fleet_metrics.json"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .metrics,
            "/tmp/fleet_metrics.json");

  ::setenv("CUSFFT_METRICS", "/tmp/env_metrics.json", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).metrics,
            "/tmp/env_metrics.json");
  // The flag wins over the environment (flags parse after env).
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .metrics,
            "/tmp/fleet_metrics.json");
  ::unsetenv("CUSFFT_METRICS");
}

TEST(BenchJson, WriteResultsEmbedsMetricsSnapshot) {
  const std::string path = "/tmp/cusfft_bench_metrics_embed.json";
  const std::string metrics =
      "{\"schema\": \"cusfft-metrics-v1\", \"counters\": "
      "{\"cusfft_batches_total\": 3}, \"gauges\": {}, \"histograms\": {}}";
  ASSERT_TRUE(
      write_results_json(path, "throughput", {{"execute", 1.0, 0.5}},
                         metrics));

  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(ss.str(), doc, &err)) << err;
  const json::Value* m = doc.find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->string_or("schema", ""), "cusfft-metrics-v1");
  const json::Value* counters = m->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("cusfft_batches_total", 0), 3);
  std::remove(path.c_str());
}

TEST(BenchOpts, ProfileEnvIsOverriddenByFlag) {
  ::setenv("CUSFFT_PROFILE", "/tmp/env.json", 1);
  const char* envonly[] = {"bench"};
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(envonly)).profile,
            "/tmp/env.json");
  const char* argv[] = {"bench", "--profile", "/tmp/cli.json"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .profile,
            "/tmp/cli.json");
  ::unsetenv("CUSFFT_PROFILE");
}

TEST(BenchOpts, MixedFlagAndEnv) {
  ::unsetenv("CUSFFT_MIXED");
  const char* none[] = {"bench"};
  EXPECT_FALSE(BenchOpts::parse(1, const_cast<char**>(none)).mixed);

  const char* argv[] = {"bench", "--mixed"};
  EXPECT_TRUE(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv))
                  .mixed);

  ::setenv("CUSFFT_MIXED", "1", 1);
  EXPECT_TRUE(BenchOpts::parse(1, const_cast<char**>(none)).mixed);
  ::setenv("CUSFFT_MIXED", "0", 1);
  EXPECT_FALSE(BenchOpts::parse(1, const_cast<char**>(none)).mixed);
  ::unsetenv("CUSFFT_MIXED");
}

// Malformed input is a usage error (exit 2 with the usage text on
// stderr), never a silently degenerate run. The old parser let strtoull
// turn CUSFFT_K=abc into k=0 and dropped unknown/misplaced flags.
using BenchOptsDeathTest = ::testing::Test;

TEST(BenchOptsDeathTest, MalformedEnvNumberExits) {
  ::setenv("CUSFFT_K", "abc", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "CUSFFT_K");
  ::unsetenv("CUSFFT_K");
}

TEST(BenchOptsDeathTest, MalformedCliValueExits) {
  const char* argv[] = {"bench", "--k", "12x"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--k");
}

TEST(BenchOptsDeathTest, NegativeValueExits) {
  const char* argv[] = {"bench", "--devices", "-3"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "non-negative");
}

TEST(BenchOptsDeathTest, MalformedNodesEnvExits) {
  ::setenv("CUSFFT_NODES", "two", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "CUSFFT_NODES");
  ::unsetenv("CUSFFT_NODES");
}

TEST(BenchOptsDeathTest, NegativeNodesFlagExits) {
  const char* argv[] = {"bench", "--nodes", "-2"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "non-negative");
}

TEST(BenchOptsDeathTest, MalformedNicGbpsFlagExits) {
  const char* argv[] = {"bench", "--nic-gbps", "fast"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--nic-gbps");
}

TEST(BenchOptsDeathTest, NegativeNicGbpsEnvExits) {
  ::setenv("CUSFFT_NIC_GBPS", "-100", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "positive number");
  ::unsetenv("CUSFFT_NIC_GBPS");
}

TEST(BenchOptsDeathTest, TrailingFlagMissingValueExits) {
  const char* argv[] = {"bench", "--seed"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "missing value");
}

TEST(BenchOptsDeathTest, UnknownFlagExits) {
  const char* argv[] = {"bench", "--frobnicate", "1"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchOptsDeathTest, MalformedThreadsEnvExits) {
  const char* prev = std::getenv("CUSFFT_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* bad : {"4x", "abc", "0", "-2", "900"}) {
    ::setenv("CUSFFT_THREADS", bad, 1);
    const char* argv[] = {"bench"};
    EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "CUSFFT_THREADS")
        << bad;
  }
  if (prev != nullptr)
    ::setenv("CUSFFT_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("CUSFFT_THREADS");
}

TEST(BenchOptsDeathTest, MalformedGraphEnvExits) {
  const char* prev = std::getenv("CUSFFT_GRAPH");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* bad : {"verfy", "off", "false"}) {
    ::setenv("CUSFFT_GRAPH", bad, 1);
    const char* argv[] = {"bench"};
    EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "CUSFFT_GRAPH")
        << bad;
  }
  if (prev != nullptr)
    ::setenv("CUSFFT_GRAPH", saved.c_str(), 1);
  else
    ::unsetenv("CUSFFT_GRAPH");
}

TEST(BenchOptsDeathTest, EmptyMetricsEnvExits) {
  ::setenv("CUSFFT_METRICS", "", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "CUSFFT_METRICS");
  ::unsetenv("CUSFFT_METRICS");
}

TEST(BenchOptsDeathTest, MetricsFlagMissingValueExits) {
  const char* argv[] = {"bench", "--metrics"};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "missing value");
}

TEST(BenchOptsDeathTest, EmptyMetricsFlagValueExits) {
  const char* argv[] = {"bench", "--metrics", ""};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "non-empty path");
}

TEST(BenchOpts, ServeFlagEnvAndPaths) {
  ::unsetenv("CUSFFT_SERVE");
  ::unsetenv("CUSFFT_SERVE_IN");
  ::unsetenv("CUSFFT_SERVE_OUT");
  const char* none[] = {"bench"};
  EXPECT_FALSE(BenchOpts::parse(1, const_cast<char**>(none)).serve);

  const char* argv[] = {"bench",      "--serve",     "--serve-in",
                        "/tmp/in.tr", "--serve-out", "/tmp/out.tr"};
  const auto o = BenchOpts::parse(static_cast<int>(std::size(argv)),
                                  const_cast<char**>(argv));
  EXPECT_TRUE(o.serve);
  EXPECT_EQ(o.serve_in, "/tmp/in.tr");
  EXPECT_EQ(o.serve_out, "/tmp/out.tr");

  ::setenv("CUSFFT_SERVE", "1", 1);
  ::setenv("CUSFFT_SERVE_IN", "/tmp/env_in.tr", 1);
  EXPECT_TRUE(BenchOpts::parse(1, const_cast<char**>(none)).serve);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).serve_in,
            "/tmp/env_in.tr");
  ::setenv("CUSFFT_SERVE", "0", 1);
  EXPECT_FALSE(BenchOpts::parse(1, const_cast<char**>(none)).serve);
  ::unsetenv("CUSFFT_SERVE");
  ::unsetenv("CUSFFT_SERVE_IN");
}

// CUSFFT_SERVE_* audit: serve_config_or_exit re-reads the environment on
// every call (no latching) and turns the library's typed parse error into
// the bench's exit-2 usage error.
TEST(ServeConfig, OrExitAppliesEnvUnlatched) {
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "5", 1);
  EXPECT_EQ(serve_config_or_exit(serve::ServerConfig{}).max_batch, 5u);
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "6", 1);
  EXPECT_EQ(serve_config_or_exit(serve::ServerConfig{}).max_batch, 6u);
  ::unsetenv("CUSFFT_SERVE_MAX_BATCH");
  EXPECT_EQ(serve_config_or_exit(serve::ServerConfig{}).max_batch,
            serve::ServerConfig{}.max_batch);
}

TEST(BenchOptsDeathTest, MalformedServeMaxBatchExits) {
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "abc", 1);
  EXPECT_EXIT(serve_config_or_exit(serve::ServerConfig{}),
              ::testing::ExitedWithCode(2), "CUSFFT_SERVE_MAX_BATCH");
  ::unsetenv("CUSFFT_SERVE_MAX_BATCH");
}

TEST(BenchOptsDeathTest, NegativeServeWaitExits) {
  ::setenv("CUSFFT_SERVE_MAX_WAIT_MS", "-2", 1);
  EXPECT_EXIT(serve_config_or_exit(serve::ServerConfig{}),
              ::testing::ExitedWithCode(2), "CUSFFT_SERVE_MAX_WAIT_MS");
  ::unsetenv("CUSFFT_SERVE_MAX_WAIT_MS");
}

TEST(BenchOptsDeathTest, ZeroServeDevicesExits) {
  // The value parses but fails validate(): still a usage error, with the
  // library's message naming the rejected knob.
  ::setenv("CUSFFT_SERVE_DEVICES", "0", 1);
  EXPECT_EXIT(serve_config_or_exit(serve::ServerConfig{}),
              ::testing::ExitedWithCode(2), "devices must be >= 1");
  ::unsetenv("CUSFFT_SERVE_DEVICES");
}

TEST(BenchOptsDeathTest, MalformedServeQueueDepthExits) {
  ::setenv("CUSFFT_SERVE_QUEUE_DEPTH", "1.5", 1);
  EXPECT_EXIT(serve_config_or_exit(serve::ServerConfig{}),
              ::testing::ExitedWithCode(2), "CUSFFT_SERVE_QUEUE_DEPTH");
  ::unsetenv("CUSFFT_SERVE_QUEUE_DEPTH");
}

TEST(BenchOptsDeathTest, EmptyServeOutFlagValueExits) {
  const char* argv[] = {"bench", "--serve-out", ""};
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "non-empty path");
}

TEST(BenchOpts, AlgoFlagEnvAndUnlatchedReRead) {
  ::unsetenv("CUSFFT_ALGO");
  ::unsetenv("CUSFFT_AUTOPICK");
  const char* none[] = {"bench"};
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).algo,
            sfft::Algorithm::kCusfft);

  const char* argv[] = {"bench", "--algo", "ffast"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(argv)),
                             const_cast<char**>(argv))
                .algo,
            sfft::Algorithm::kFfast);

  // The environment is re-read on every parse (no latching), and the flag
  // wins over the environment.
  ::setenv("CUSFFT_ALGO", "auto", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).algo,
            sfft::Algorithm::kAuto);
  ::setenv("CUSFFT_ALGO", "ffast", 1);
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).algo,
            sfft::Algorithm::kFfast);
  const char* cli[] = {"bench", "--algo", "cusfft"};
  EXPECT_EQ(BenchOpts::parse(static_cast<int>(std::size(cli)),
                             const_cast<char**>(cli))
                .algo,
            sfft::Algorithm::kCusfft);
  ::unsetenv("CUSFFT_ALGO");
  EXPECT_EQ(BenchOpts::parse(1, const_cast<char**>(none)).algo,
            sfft::Algorithm::kCusfft);
}

TEST(BenchOptsDeathTest, MalformedAlgoEnvExits) {
  ::setenv("CUSFFT_ALGO", "fastest", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "CUSFFT_ALGO");
  ::unsetenv("CUSFFT_ALGO");
}

TEST(BenchOptsDeathTest, MalformedAlgoFlagExits) {
  const char* argv[] = {"bench", "--algo", "FFAST"};  // names are lowercase
  EXPECT_EXIT(BenchOpts::parse(static_cast<int>(std::size(argv)),
                               const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--algo");
}

TEST(BenchOptsDeathTest, MalformedAutopickEnvExits) {
  // CUSFFT_AUTOPICK is consumed by the library picker, but the bench
  // validates it at parse time so a typo dies with usage instead of deep
  // inside the first auto-picked execute.
  ::setenv("CUSFFT_AUTOPICK", "guess", 1);
  const char* argv[] = {"bench"};
  EXPECT_EXIT(BenchOpts::parse(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "CUSFFT_AUTOPICK");
  ::unsetenv("CUSFFT_AUTOPICK");
}

TEST(BenchOpts, AutopickEnvAcceptedValuesParse) {
  const char* none[] = {"bench"};
  for (const char* v : {"measured", "modeled"}) {
    ::setenv("CUSFFT_AUTOPICK", v, 1);
    EXPECT_NO_FATAL_FAILURE(BenchOpts::parse(1, const_cast<char**>(none)))
        << v;
  }
  ::unsetenv("CUSFFT_AUTOPICK");
}

TEST(PaperParams, FollowsPaperRegimeByDefault) {
  ::unsetenv("CUSFFT_BCST");
  ::unsetenv("CUSFFT_LOOPS_LOC");
  ::unsetenv("CUSFFT_LOOPS_EST");
  ::unsetenv("CUSFFT_TOL");
  const auto p = paper_params(1 << 20, 100, 9);
  EXPECT_DOUBLE_EQ(p.bcst, 1.0);  // B = sqrt(nk / log2 n), unit constant
  EXPECT_EQ(p.loops_loc, 4u);
  EXPECT_EQ(p.loops_est, 8u);
  EXPECT_DOUBLE_EQ(p.filter.tolerance, 1e-6);
  EXPECT_EQ(p.seed, 9u);
  p.validate();  // must be a legal configuration
}

TEST(PaperParams, EnvTunesTheRegime) {
  ::setenv("CUSFFT_BCST", "2.5", 1);
  ::setenv("CUSFFT_LOOPS_EST", "6", 1);
  const auto p = paper_params(1 << 20, 100, 9);
  EXPECT_DOUBLE_EQ(p.bcst, 2.5);
  EXPECT_EQ(p.loops_est, 6u);
  ::unsetenv("CUSFFT_BCST");
  ::unsetenv("CUSFFT_LOOPS_EST");
}

TEST(MakeSignal, DeterministicPerParameters) {
  const auto a = make_signal(1 << 12, 8, 5);
  const auto b = make_signal(1 << 12, 8, 5);
  const auto c = make_signal(1 << 12, 8, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace cusfft::bench
