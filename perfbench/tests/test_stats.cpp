// Unit tests for the benchmark's own arithmetic: the ten-beyond percentile
// rule, goodput counting, the serve_qps_max ladder and backlog rule, the
// closed-loop FIFO replay, and self time from nested spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using cusfft::SparseSpectrum;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: quantile must sort
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile(one_to(100), 0.5), 50);
  EXPECT_EQ(quantile(one_to(100), 0.9), 90);
  EXPECT_EQ(quantile(one_to(1000), 0.99), 990);
  EXPECT_EQ(quantile(one_to(7), 1.0), 7);
  EXPECT_EQ(quantile({}, 0.5), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Quantile, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(tail_supported(100, 0.9));
  EXPECT_FALSE(tail_supported(99, 0.9));
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Quantile, WindowedIgnoresBurstInMinorityOfWindows) {
  // Five windows of 20 calls at 10 ms; two windows hit by a burst.
  std::vector<double> v(100, 10.0);
  for (std::size_t i = 20; i < 60; ++i) v[i] = 50.0;
  EXPECT_EQ(quantile(v, 0.9), 50);
  EXPECT_EQ(windowed_quantile(v, 0.9, 20), 10);
  // The trailing partial window is left out.
  v.resize(110, 99.0);
  EXPECT_EQ(windowed_quantile(v, 0.9, 20), 10);
  // No full window: the plain quantile.
  EXPECT_EQ(windowed_quantile(one_to(10), 0.9, 20), 9);
  EXPECT_EQ(windowed_quantile(one_to(10), 0.9, 0), 9);
}

SparseSpectrum spectrum(std::vector<std::pair<cusfft::u64, double>> v) {
  SparseSpectrum s;
  for (const auto& [loc, re] : v) s.push_back({loc, {re, 0.0}});
  return s;
}

TEST(Score, RecallAndL1AgainstPlantedTones) {
  const SparseSpectrum truth = spectrum({{3, 1}, {7, 1}, {9, 1}, {20, 1}});
  const Score exact = score(spectrum({{20, 1}, {3, 1}, {9, 1}, {7, 1}}), truth);
  EXPECT_EQ(exact.recall, 1.0);
  EXPECT_EQ(exact.l1, 0.0);
  // One tone missed (|1| error), one off by 0.5, one false positive of 2.
  const Score s = score(spectrum({{3, 1}, {7, 1.5}, {9, 1}, {11, 2}}), truth);
  EXPECT_EQ(s.recall, 0.75);
  EXPECT_DOUBLE_EQ(s.l1, (1.0 + 0.5 + 2.0) / 4.0);
  EXPECT_FALSE(s.empty);
  EXPECT_TRUE(score({}, truth).empty);
}

TEST(Tally, GoodputCountsOnlyRecoveredSignals) {
  Tally t;
  t.add({1.0, 0.01, false});  // recovered
  t.add({0.9, 0.02, false});  // exactly at the floor: recovered
  t.add({0.5, 0.50, false});  // recall too low
  t.add({0.0, 1.00, true});   // empty spectrum
  t.add_error();              // threw / shed: no spectrum, no L1
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.recovered, 2u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.6);
  EXPECT_DOUBLE_EQ(t.recovered_frac(), 0.4);
  EXPECT_DOUBLE_EQ(t.goodput(0.5), 4.0);
  EXPECT_DOUBLE_EQ(t.mean_recall(), 2.4 / 5);
  EXPECT_DOUBLE_EQ(t.mean_l1(), 1.53 / 4);
  EXPECT_EQ(Tally{}.goodput(1.0), 0.0);

  Tally u;
  u.add({1.0, 0.0, false});
  u.merge(t);
  EXPECT_EQ(u.attempted, 6u);
  EXPECT_EQ(u.recovered, 3u);
  EXPECT_EQ(u.errors, 1u);
}

TEST(SpectrumHash, SeesEveryBit) {
  const SparseSpectrum a = spectrum({{1, 0.5}, {2, 0.25}});
  SparseSpectrum b = a;
  EXPECT_EQ(spectrum_hash(a), spectrum_hash(b));
  b[1].val = {std::nextafter(0.25, 1.0), 0.0};
  EXPECT_NE(spectrum_hash(a), spectrum_hash(b));
  b = a;
  b[0].loc = 3;
  EXPECT_NE(spectrum_hash(a), spectrum_hash(b));
}

TEST(Ladder, BacklogRule) {
  const std::vector<double> flat(40, 2.0);
  EXPECT_FALSE(backlog_growing(flat, 1.0));
  std::vector<double> rising;
  for (int i = 0; i < 40; ++i) rising.push_back(1.0 + 0.1 * i);
  // First quarter mean 1.45, last quarter 4.45: grew by 3 ms.
  EXPECT_TRUE(backlog_growing(rising, 2.9));
  EXPECT_FALSE(backlog_growing(rising, 3.1));
  EXPECT_FALSE(backlog_growing(std::vector<double>{1, 100, 1000}, 1.0));
}

TEST(Ladder, RungNeedsTailUnderLimitNoFailureNoBacklog) {
  std::vector<double> lat(100, 1.0);
  EXPECT_TRUE(judge_rung(10, lat, lat, 0, 2.0).pass);
  lat[0] = 3.0;  // one sample over the limit: p99 of 100 stays at 1.0
  EXPECT_TRUE(judge_rung(10, lat, lat, 0, 2.0).pass);
  lat[1] = 3.0;  // two: the p99 rank now lands over the limit
  EXPECT_FALSE(judge_rung(10, lat, lat, 0, 2.0).pass);
  const std::vector<double> ok(100, 1.0);
  EXPECT_FALSE(judge_rung(10, ok, ok, 1, 2.0).pass);  // a failed request
  std::vector<double> failed_lat = ok;
  failed_lat[5] = failed_lat[6] = kFailedLatency;
  EXPECT_FALSE(judge_rung(10, failed_lat, ok, 0, 2.0).pass);
  EXPECT_FALSE(judge_rung(10, {}, ok, 0, 2.0).pass);  // nothing measured
}

TEST(Ladder, QpsMaxWalksThenRefines) {
  const std::vector<double> ladder = {1, 2, 4, 8, 16};
  auto capacity = [](double cap) {
    return [cap](double rate) {
      RungOutcome r;
      r.rate = rate;
      r.pass = rate <= cap;
      return r;
    };
  };
  std::vector<RungOutcome> probes;
  const double q = qps_max(ladder, capacity(5.0), 4, &probes);
  // Walk 1, 2, 4 (pass), 8 (fail); four geometric bisections in (4, 8).
  EXPECT_EQ(probes.size(), 4u + 4u);
  EXPECT_LE(q, 5.0);
  EXPECT_GT(q, 5.0 / std::pow(2.0, 1.0 / 16));
  EXPECT_EQ(qps_max(ladder, capacity(100), 4), 16);  // every rung passes
  EXPECT_EQ(qps_max(ladder, capacity(0.5), 4), 0);   // none does
  EXPECT_EQ(qps_max(ladder, capacity(4), 0), 4);     // no refinement
}

TEST(Ladder, FifoReplayOfServiceTimes) {
  const std::vector<double> service = {2, 2, 2, 2};
  // Arrivals every 1 ms against 2 ms service: waits grow by 1 ms.
  EXPECT_EQ(fifo_sojourns(service, std::vector<double>{0, 1, 2, 3}),
            (std::vector<double>{2, 3, 4, 5}));
  // Every 4 ms: nobody waits.
  EXPECT_EQ(fifo_sojourns(service, std::vector<double>{0, 4, 8, 12}),
            (std::vector<double>{2, 2, 2, 2}));
  // An idle gap resets the queue: 1 ms, then 10 ms later.
  EXPECT_EQ(fifo_sojourns(service, std::vector<double>{1, 2, 12, 12}),
            (std::vector<double>{2, 3, 2, 4}));
}

TEST(Ladder, PoissonArrivalsScaleOneDrawAcrossRates) {
  const std::vector<double> slow = poisson_arrivals(2000, 100, 42);
  const std::vector<double> fast = poisson_arrivals(2000, 400, 42);
  EXPECT_EQ(slow, poisson_arrivals(2000, 100, 42));
  for (std::size_t i = 0; i < slow.size(); ++i)
    EXPECT_NEAR(slow[i], 4 * fast[i], 1e-9 * slow[i]);
  EXPECT_TRUE(std::is_sorted(slow.begin(), slow.end()));
  // 2000 arrivals at 100/s span about 20 s.
  EXPECT_NEAR(slow.back(), 20000, 2000);
  EXPECT_NE(slow, poisson_arrivals(2000, 100, 43));
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // call [0, 10) > execute [1, 7) > capture [2, 3); call > teardown [8, 9).
  std::vector<Span> s = {
      {"call", 0, 10, -1, 0},
      {"execute", 1, 7, 0, 0},
      {"capture", 2, 3, 1, 0},
      {"teardown", 8, 9, 0, 0},
      {"call", 10, 12, -1, 1},
  };
  const auto self = self_ms(s);
  EXPECT_DOUBLE_EQ(self.at("call"), (10 - 6 - 1) + 2.0);
  EXPECT_DOUBLE_EQ(self.at("execute"), 6 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("capture"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("teardown"), 1.0);
}

TEST(Spans, TracerNestsAndOrders) {
  Tracer t;
  {
    Tracer::Scope outer(&t, "call", 7);
    Tracer::Scope inner(&t, "execute", 7);
  }
  Tracer::Scope off(nullptr, "ignored", 0);  // tracing off: no span
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].id, 7u);
  EXPECT_LE(t.spans()[0].start_ms, t.spans()[1].start_ms);
  EXPECT_GE(t.spans()[0].end_ms, t.spans()[1].end_ms);
  EXPECT_THROW(t.close(0), std::logic_error);  // nothing open
}

}  // namespace
}  // namespace perfbench
