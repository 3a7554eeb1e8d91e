// Randomized differential ("fuzz") tests: many random configurations per
// test, each checked against an independent oracle — std::sort for the
// device sorts, the host FFT for the simulated cuFFT, the dense-FFT
// spectrum for the sparse transforms, and the single-plan execute for the
// serving tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "cufftsim/cufftsim.hpp"
#include "custhrust/scan.hpp"
#include "custhrust/sort.hpp"
#include "fft/dft.hpp"
#include "fft/fft.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "serve_harness.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

TEST(Fuzz, DeviceSortsMatchStdSortManySizes) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.next_below(3000);
    const auto algo = trial % 2 == 0 ? custhrust::SortAlgo::kRadix
                                     : custhrust::SortAlgo::kBitonic;
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<double> keys(n);
    cusim::DeviceBuffer<u32> vals(n);
    std::vector<double> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix magnitudes, duplicates, negatives, zeros.
      const double v = rng.next_below(4) == 0
                           ? 0.0
                           : rng.next_normal() * std::pow(10.0, double(
                                 rng.next_below(7)) - 3.0);
      keys.host()[i] = ref[i] = v;
      vals.host()[i] = static_cast<u32>(i);
    }
    custhrust::sort_pairs_desc(dev, keys, vals, algo);
    std::sort(ref.begin(), ref.end(), std::greater<>());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_DOUBLE_EQ(keys.host()[i], ref[i])
          << "trial=" << trial << " n=" << n << " i=" << i;
  }
}

TEST(Fuzz, DeviceScanMatchesStdManySizes) {
  Rng rng(2025);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 1 + rng.next_below(5000);
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<u64> data(n);
    for (auto& v : data.host()) v = rng.next_below(1000);
    std::vector<u64> expect(data.host().begin(), data.host().end());
    std::exclusive_scan(expect.begin(), expect.end(), expect.begin(),
                        u64{0});
    custhrust::exclusive_scan(dev, data);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(data.host()[i], expect[i]) << "trial=" << trial << " n=" << n;
  }
}

TEST(Fuzz, CufftsimMatchesHostFftRandomSizesAndBatches) {
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 1ULL << (1 + rng.next_below(11));
    const std::size_t batch = 1 + rng.next_below(4);
    cusim::Device dev;
    dev.begin_capture();
    cufftsim::Plan plan(dev, n, batch);
    cvec data(n * batch);
    for (auto& v : data) v = cplx{rng.next_normal(), rng.next_normal()};
    cusim::DeviceBuffer<cplx> buf(data.size());
    std::copy(data.begin(), data.end(), buf.host().begin());
    plan.execute(buf, cufftsim::Direction::kForward);
    for (std::size_t b = 0; b < batch; ++b) {
      const cvec expect =
          fft::fft(std::span<const cplx>(data).subspan(b * n, n));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(std::abs(buf.host()[b * n + i] - expect[i]), 0.0,
                    1e-8 * std::sqrt(double(n)))
            << "trial=" << trial << " n=" << n << " b=" << b;
    }
  }
}

TEST(Fuzz, SerialSfftRecoversAcrossRandomConfigs) {
  Rng rng(2027);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t logn = 12 + rng.next_below(4);
    const std::size_t n = 1ULL << logn;
    const std::size_t k = 2 + rng.next_below(24);
    sfft::Params p;
    p.n = n;
    p.k = k;
    p.seed = 9000 + trial;
    p.comb = trial % 3 == 0;
    auto sig = signal::make_sparse_signal(n, k, rng);
    const auto got = sfft::SerialPlan(p).execute(sig.x);
    const cvec oracle = densify(sig.truth, n);
    EXPECT_DOUBLE_EQ(location_recall(got, oracle, k), 1.0)
        << "trial=" << trial << " n=" << n << " k=" << k;
    EXPECT_LT(l1_error_per_coeff(got, oracle, k), 2e-2)
        << "trial=" << trial;
  }
}

TEST(Fuzz, ValidateRejectsDegenerateConfigs) {
  // Pinned rejections from the hostile-config sweep. The NaN cases are
  // regressions: validate()'s positivity checks were spelled `x <= 0.0`,
  // which NaN fails (every ordered comparison involving NaN is false), so
  // NaN constants sailed through into the derived-size math.
  auto reject = [](auto&& mutate, const char* what) {
    sfft::Params p;
    p.n = 4096;
    p.k = 8;
    mutate(p);
    EXPECT_THROW(p.validate(), std::invalid_argument) << what;
  };
  reject([](sfft::Params& p) { p.k = p.n; }, "k == n");
  reject([](sfft::Params& p) { p.k = p.n / 2 + 1; }, "k > n/2");
  reject([](sfft::Params& p) { p.k = 0; }, "k == 0");
  reject([](sfft::Params& p) { p.loops_loc = 0; p.loc_threshold = 0; },
         "loops_loc = 0 with loc_threshold = 0");
  reject([](sfft::Params& p) { p.loc_threshold = p.loops_loc + 1; },
         "vote threshold > location loops");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  reject([&](sfft::Params& p) { p.bcst = nan; }, "NaN bcst");
  reject([&](sfft::Params& p) { p.cutoff_mult = nan; }, "NaN cutoff_mult");
  reject([&](sfft::Params& p) { p.comb = true; p.comb_cst = nan; },
         "NaN comb_cst");
  reject([&](sfft::Params& p) { p.comb = true; p.comb_keep_mult = nan; },
         "NaN comb_keep_mult");
  reject([&](sfft::Params& p) { p.ffast_bin_mult = nan; },
         "NaN ffast_bin_mult");
}

TEST(Fuzz, DerivedSizesSaturateInsteadOfWrapping) {
  // Multipliers that push a derived size past 2^63 used to hit UB
  // double->u64 casts: bcst = 1e300 came back as buckets() == 8 instead
  // of n, and cutoff_mult = 1e300 as cutoff() == 0 — which silently
  // emptied every spectrum. The clamps now apply in the double domain.
  sfft::Params p;
  p.n = 4096;
  p.k = 4;
  p.bcst = 1e300;
  ASSERT_NO_THROW(p.validate());
  EXPECT_EQ(p.buckets(), p.n);

  sfft::Params q;
  q.n = 4096;
  q.k = 4;
  q.cutoff_mult = 1e300;
  ASSERT_NO_THROW(q.validate());
  EXPECT_EQ(q.cutoff(), q.buckets() / 2);
  EXPECT_GT(q.cutoff(), 0u);
  Rng rng(77);
  const auto sig = signal::make_sparse_signal(q.n, q.k, rng);
  EXPECT_FALSE(sfft::SerialPlan(q).execute(sig.x).empty())
      << "saturated cutoff must not silently empty the spectrum";

  sfft::Params c;
  c.n = 4096;
  c.k = 8;
  c.comb = true;
  c.comb_cst = 1e300;
  c.comb_keep_mult = 1e300;
  ASSERT_NO_THROW(c.validate());
  EXPECT_EQ(c.comb_w(), c.n / 2);
  EXPECT_EQ(c.comb_keep(), c.n);

  sfft::Params f;
  f.n = 4096;
  f.k = 8;
  f.ffast_bin_mult = 1e300;
  ASSERT_NO_THROW(f.validate());
  EXPECT_EQ(f.ffast_bins(), f.n);
}

TEST(Fuzz, DegenerateConfigsExecuteWithoutCrashing) {
  // Extreme-but-valid configs: the bucket count clamped to its floor of
  // 4, a comb keep far above the comb width (clamped inside the filter),
  // the smallest legal n at maximum density, and FFAST bin counts at both
  // extremes. None are useful configurations; all must run to completion
  // on every backend and return only finite coefficients.
  auto expect_finite = [](const SparseSpectrum& s, const char* what) {
    for (const auto& coef : s) {
      EXPECT_LT(coef.loc, std::size_t{1} << 20) << what;
      EXPECT_TRUE(std::isfinite(coef.val.real()) &&
                  std::isfinite(coef.val.imag()))
          << what << " loc " << coef.loc;
    }
  };
  auto run_all = [&](const sfft::Params& p, const char* what) {
    ASSERT_NO_THROW(p.validate()) << what;
    Rng rng(p.seed + p.n + p.k);
    const auto sig = signal::make_sparse_signal(p.n, p.k, rng);
    expect_finite(sfft::SerialPlan(p).execute(sig.x), what);
    cusim::Device dev;
    expect_finite(
        gpu::GpuPlan(dev, p, gpu::Options::optimized()).execute(sig.x), what);
  };

  sfft::Params floor_b;
  floor_b.n = 4096;
  floor_b.k = 4;
  floor_b.bcst = 1e-9;
  EXPECT_EQ(floor_b.buckets(), 4u);
  run_all(floor_b, "bucket floor B=4");

  sfft::Params keep_over_w;
  keep_over_w.n = 4096;
  keep_over_w.k = 8;
  keep_over_w.comb = true;
  keep_over_w.comb_keep_mult = 512.0;
  ASSERT_GT(keep_over_w.comb_keep(), keep_over_w.comb_w());
  run_all(keep_over_w, "comb keep > comb width");

  sfft::Params tiny;
  tiny.n = 16;
  tiny.k = 8;  // k == n/2, densest legal config at the smallest legal n
  run_all(tiny, "tiny n at k = n/2");

  for (const double mult : {1e-9, 1e300}) {
    sfft::Params fp;
    fp.n = 1 << 10;
    fp.k = 4;
    fp.algo = sfft::Algorithm::kFfast;
    fp.ffast_bin_mult = mult;
    fp.ffast_stages = 8;
    ASSERT_NO_THROW(fp.validate());
    Rng rng(55);
    const auto sig = signal::make_sparse_signal(fp.n, fp.k, rng);
    expect_finite(sfft::FfastPlan(fp).execute(sig.x), "ffast bin extremes");
  }
}

TEST(Fuzz, RandomHostileConfigsValidateOrExecute) {
  // Randomized sweep over hostile multiplier grids: every drawn config
  // either fails validate() with invalid_argument, or executes on the
  // serial backend without crashing.
  const double grid[] = {1e-9, 0.25, 1.0, 4.0, 1e9, 1e300,
                         std::numeric_limits<double>::quiet_NaN()};
  Rng rng(2031);
  int executed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    sfft::Params p;
    p.n = 1ULL << (4 + rng.next_below(7));
    p.k = 1 + rng.next_below(p.n);  // deliberately allows illegal k > n/2
    p.seed = 8800 + trial;
    p.bcst = grid[rng.next_below(7)];
    p.cutoff_mult = grid[rng.next_below(7)];
    p.comb = rng.next_below(2) == 0;
    p.comb_cst = grid[rng.next_below(7)];
    p.comb_keep_mult = grid[rng.next_below(7)];
    p.loops_loc = rng.next_below(5);  // 0 is illegal
    p.loc_threshold = rng.next_below(8);
    try {
      p.validate();
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++executed;
    Rng sig_rng(p.seed);
    const auto sig = signal::make_sparse_signal(p.n, p.k, sig_rng);
    const auto got = sfft::SerialPlan(p).execute(sig.x);
    for (const auto& coef : got)
      ASSERT_LT(coef.loc, p.n) << "trial=" << trial;
  }
  // The sweep must actually exercise the execute path, not reject 40/40.
  EXPECT_GT(executed, 0);
}

TEST(Fuzz, ServerSubmissionsTerminateOnceAndMatchSinglePlan) {
  // Randomized tenants, shapes, SLO classes, deadlines, quotas and clock
  // advances against the serving tier's virtual drive. Invariants: every
  // request reaches exactly one of {completed, shed, rejected}; request
  // accounting conserves; every completed spectrum is bit-identical to a
  // standalone GpuPlan::execute of the same params and samples —
  // continuous batching must never change results; and a second run of
  // the same script reproduces the schedule trace byte for byte.
  constexpr u64 kSignalSeed = 2029;
  Rng rng(2029);
  std::size_t shed_total = 0, rejected_total = 0;  // over all trials
  for (int trial = 0; trial < 3; ++trial) {
    serve::ServerConfig cfg;
    cfg.devices = 1 + rng.next_below(2);
    cfg.max_batch = 1 + rng.next_below(8);
    cfg.max_wait_latency_ms = 0.1 + rng.next_double();
    cfg.max_wait_throughput_ms = 0.5 + 2.0 * rng.next_double();
    cfg.tenant_queue_depth = 2 + rng.next_below(6);

    // The script: nondecreasing arrivals (a third of them simultaneous
    // with the previous one), each followed by an advance() to a random
    // later point with probability 1/5. An advance past the next arrival
    // makes submit_at clamp that arrival to the clock.
    struct Step {
      serve::TraceEvent e;
      double advance_ms = -1;  // < 0: no advance after this arrival
    };
    std::vector<Step> script;
    const std::size_t count = 40 + rng.next_below(40);
    double at = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.next_below(3) != 0) at += 0.5 * rng.next_double();
      Step st;
      st.e = serve_test::ev(at, "f" + std::to_string(rng.next_below(4)),
                            std::size_t{256} << rng.next_below(2), 4,
                            rng.next_below(3) == 0
                                ? serve::SloClass::kLatency
                                : serve::SloClass::kThroughput);
      if (rng.next_below(6) == 0) st.e.deadline_ms = 0.05 + rng.next_double();
      if (rng.next_below(5) == 0) st.advance_ms = at + 3.0 * rng.next_double();
      script.push_back(std::move(st));
    }
    const auto drive = [&](serve::Server& s) {
      std::vector<u64> ids;
      for (std::size_t i = 0; i < script.size(); ++i) {
        const serve::TraceEvent& e = script[i].e;
        serve::Request r;
        r.tenant = e.tenant;
        r.params = serve::trace_params(e, kSignalSeed);
        r.x = serve::trace_signal(e, kSignalSeed, i);
        r.slo = e.slo;
        r.deadline_ms = e.deadline_ms;
        ids.push_back(s.submit_at(e.arrival_ms, std::move(r)));
        if (script[i].advance_ms >= 0) s.advance(script[i].advance_ms);
      }
      s.drain();
      return ids;
    };
    serve::Server s(cfg);
    const std::vector<u64> ids = drive(s);
    ASSERT_EQ(ids.size(), count);

    // Exactly one terminal line (done, shed or reject) per id.
    std::map<u64, int> terminal_lines;
    {
      std::istringstream lines(s.schedule_trace());
      std::string line;
      while (std::getline(lines, line)) {
        for (const char* tag : {"done id=", "shed id=", "reject id="}) {
          if (line.rfind(tag, 0) == 0)
            ++terminal_lines[std::stoull(line.substr(std::strlen(tag)))];
        }
      }
    }
    std::size_t completed = 0, shed = 0, rejected = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const u64 id = ids[i];
      EXPECT_EQ(terminal_lines[id], 1) << "trial=" << trial << " id=" << id;
      const serve::Response resp = s.response(id);
      switch (resp.outcome) {
        case serve::Outcome::kCompleted: ++completed; break;
        case serve::Outcome::kShed: ++shed; break;
        case serve::Outcome::kRejected: ++rejected; break;
        case serve::Outcome::kPending:
          FAIL() << "trial=" << trial << " id=" << id << " never terminated";
      }
      if (resp.outcome != serve::Outcome::kCompleted) continue;
      const serve::TraceEvent& e = script[i].e;
      cusim::Device dev;
      gpu::GpuPlan plan(dev, serve::trace_params(e, kSignalSeed), cfg.opts);
      const SparseSpectrum want =
          plan.execute(serve::trace_signal(e, kSignalSeed, i));
      ASSERT_EQ(resp.spectrum.size(), want.size())
          << "trial=" << trial << " id=" << id;
      for (std::size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(resp.spectrum[j].loc, want[j].loc)
            << "trial=" << trial << " id=" << id;
        ASSERT_EQ(resp.spectrum[j].val, want[j].val)
            << "trial=" << trial << " id=" << id;
      }
    }
    EXPECT_EQ(terminal_lines.size(), count) << "trial=" << trial;
    const auto st = s.stats();
    EXPECT_EQ(st.submitted, count) << "trial=" << trial;
    EXPECT_EQ(st.completed, completed) << "trial=" << trial;
    EXPECT_EQ(st.shed, shed) << "trial=" << trial;
    EXPECT_EQ(st.rejected, rejected) << "trial=" << trial;
    EXPECT_EQ(completed + shed + rejected, count) << "trial=" << trial;
    EXPECT_GT(completed, 0u) << "trial=" << trial;
    shed_total += shed;
    rejected_total += rejected;

    serve::Server again(cfg);
    EXPECT_EQ(drive(again), ids) << "trial=" << trial;
    EXPECT_EQ(again.schedule_trace(), s.schedule_trace())
        << "trial=" << trial;
  }
  // The script must reach every terminal outcome, not only completions.
  EXPECT_GT(shed_total, 0u);
  EXPECT_GT(rejected_total, 0u);
}

TEST(Fuzz, BluesteinMatchesNaiveDftOddSizes) {
  Rng rng(2028);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + rng.next_below(500);
    cvec x(n);
    for (auto& v : x) v = cplx{rng.next_normal(), rng.next_normal()};
    const cvec got = fft::fft(x);
    const cvec expect = fft::dft_naive(x);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(std::abs(got[i] - expect[i]), 0.0,
                  1e-7 * std::sqrt(double(n)))
          << "trial=" << trial << " n=" << n << " i=" << i;
  }
}

}  // namespace
}  // namespace cusfft
