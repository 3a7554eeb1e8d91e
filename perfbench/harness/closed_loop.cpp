#include "closed_loop.hpp"

#include <algorithm>
#include <cstdio>

#include "core/timer.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kCheckCalls = 4;  // calls replayed traced at --trace 0
// A timed run makes at least this many calls, so each of host_ms_p90's
// windows holds at least 20 even on a slow host.
constexpr std::size_t kMinCalls = 100;
// host_ms_p90 is the median of the p90s of this many consecutive windows
// of the run's calls: the p90 of a whole steady_batch run spread ~34 %
// between runs when host load came in bursts.
constexpr std::size_t kP90Windows = 5;
constexpr double kModelTolerance = 1e-6;
constexpr int kLadderRefine = 6;
// Arrivals of the modeled open-loop replay: enough that its percentiles
// barely move with the arrival draw.
constexpr std::size_t kReplayArrivals = 100000;

/// serve_qps_max's fixed ladder for closed-loop calls: 1-2-5 steps from 1
/// to 100000 calls per modeled second.
std::vector<double> call_ladder() {
  std::vector<double> l;
  for (double decade = 1; decade <= 1e5; decade *= 10)
    for (const double step : {1.0, 2.0, 5.0}) l.push_back(step * decade);
  return l;
}

/// Calls 0, 1, ...: exactly `count` of them when count > 0, else until a
/// round boundary after `seconds` and at least `min_calls`.
std::vector<Call> run_calls(ClosedLoop& w, std::size_t count, double seconds,
                            std::size_t min_calls, Tracer* t,
                            Layers* layers) {
  std::vector<Call> calls;
  cusfft::WallTimer wall;
  for (std::size_t i = 0;; ++i) {
    if (count > 0 ? i == count
                  : i > 0 && i % w.round() == 0 && i >= min_calls &&
                        wall.ms() >= seconds * 1e3)
      break;
    calls.push_back(w.call(i, t, layers));
  }
  return calls;
}

Tally tally_of(const std::vector<Call>& calls, std::size_t n) {
  Tally t;
  for (std::size_t i = 0; i < n && i < calls.size(); ++i)
    t.merge(calls[i].tally);
  return t;
}

double sum_model_s(const std::vector<Call>& calls, std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < n && i < calls.size(); ++i)
    s += calls[i].model_ms / 1e3;
  return s;
}

/// The output check: the first n calls of two passes must return
/// bit-identical spectra, and their modeled seconds and model_sps must
/// agree to 1e-6.
bool outputs_agree(const std::vector<Call>& a, const std::vector<Call>& b,
                   std::size_t n, std::vector<std::string>& notes) {
  std::size_t spectra = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (a[i].hashes != b[i].hashes) ++spectra;
  const double model_a = sum_model_s(a, n), model_b = sum_model_s(b, n);
  const double sps_a = tally_of(a, n).goodput(model_a);
  const double sps_b = tally_of(b, n).goodput(model_b);
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "check: %zu calls traced vs untraced, %zu with different "
                "spectra, model %.9g vs %.9g s, model_sps %.9g vs %.9g",
                n, spectra, model_a, model_b, sps_a, sps_b);
  notes.push_back(buf);
  return spectra == 0 && rel_diff(model_a, model_b) <= kModelTolerance &&
         rel_diff(sps_a, sps_b) <= kModelTolerance;
}

void fill_e2e(Result& res, const std::vector<Call>& calls, double setup_s,
              const ClosedLoop& w, cusfft::u64 seed) {
  Tally tally;
  std::vector<double> host_ms, model_ms;
  double host_s = 0, model_s = 0;
  std::size_t failed_calls = 0;
  for (const Call& c : calls) {
    tally.merge(c.tally);
    host_ms.push_back(c.host_ms);
    model_ms.push_back(c.model_ms);
    host_s += c.host_ms / 1e3;
    model_s += c.model_ms / 1e3;
    if (c.tally.errors > 0) ++failed_calls;
  }
  // host_ms_p90's windows hold whole rounds, so each sees the same mix.
  const std::size_t window =
      w.round() * std::max<std::size_t>(
                      1, calls.size() / kP90Windows / w.round());
  Report& r = res.e2e;
  r.set("host_sps", tally.goodput(host_s));
  r.set("host_ms_p50", quantile(host_ms, 0.5));
  r.set("host_ms_p90", windowed_quantile(host_ms, 0.9, window));
  r.set("model_sps", tally.goodput(model_s));
  r.set("recall", tally.mean_recall());
  r.set("l1_per_coeff", tally.mean_l1());
  r.set("recovered_frac", tally.recovered_frac());
  // The serve_* figures serve an open loop of seeded Poisson arrivals on
  // one FIFO device, at the workload's nominal rate and on the fixed
  // ladder. Each arrival's service time is one of the run's modeled call
  // makespans drawn at random: replaying them in call order would repeat
  // the run's clusters of heavy calls and make the tail a property of the
  // seed.
  std::vector<double> service(kReplayArrivals);
  cusfft::Rng pick(seed ^ 0x5e41ce);
  for (double& s : service) s = model_ms[pick.next_below(model_ms.size())];
  auto sojourns = [&](double rate) {
    return fifo_sojourns(service,
                         poisson_arrivals(kReplayArrivals, rate, seed));
  };
  const std::vector<double> nominal = sojourns(w.nominal_rate());
  r.set("serve_p50_ms", quantile(nominal, 0.5));
  r.set("serve_p99_ms", quantile(nominal, 0.99));
  r.set("serve_qps_max",
        qps_max(call_ladder(),
                [&](double rate) {
                  const std::vector<double> soj = sojourns(rate);
                  return judge_rung(rate, soj, soj, failed_calls,
                                    w.latency_limit_ms());
                },
                kLadderRefine));
  r.set("setup_s", setup_s);
  r.set("peak_rss_mb", peak_rss_mb());

  res.attempted = calls.size();
  res.failed = failed_calls;
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "samples: %zu calls, %zu signals (%zu recovered); p90 is the "
                "median of %zu windows of %zu calls, %zu beyond in each",
                calls.size(), tally.attempted, tally.recovered,
                std::max<std::size_t>(1, calls.size() / window), window,
                samples_beyond(std::min(window, calls.size()), 0.9));
  res.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "host_ms per call: min %.3f p10 %.3f p50 %.3f p90 of the "
                "run %.3f max %.3f",
                quantile(host_ms, 0), quantile(host_ms, 0.1),
                quantile(host_ms, 0.5), quantile(host_ms, 0.9),
                quantile(host_ms, 1.0));
  res.notes.push_back(buf);
}

}  // namespace

Result run_closed_loop(ClosedLoop& w, const RunConfig& cfg) {
  Result res;
  if (!cfg.trace) {
    std::vector<double> setup_s;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      cusfft::WallTimer t;
      w.setup(nullptr);
      setup_s.push_back(t.ms() / 1e3);
    }
    const std::vector<Call> calls =
        run_calls(w, 0, cfg.seconds, kMinCalls, nullptr, nullptr);
    fill_e2e(res, calls, median(setup_s), w, cfg.seed);

    // Replay the first calls traced, on freshly set-up state.
    Tracer tracer;
    w.setup(&tracer);
    const std::size_t n = std::min(kCheckCalls, calls.size());
    const std::vector<Call> check = run_calls(w, n, 0, 0, &tracer, nullptr);
    res.correct = !calls.empty() && outputs_agree(calls, check, n, res.notes);
    return res;
  }

  // Traced pass first: in cold_mixed it is the one that pays the picker's
  // calibration, like the untraced measurement does.
  Tracer tracer;
  Layers layers;
  const Counters before = Counters::read();
  w.setup(&tracer);
  const std::vector<Call> traced =
      run_calls(w, 0, cfg.seconds / 2, 1, &tracer, &layers);
  const Counters delta = Counters::read().since(before);

  w.setup(nullptr);
  const std::vector<Call> plain =
      run_calls(w, traced.size(), 0, 0, nullptr, nullptr);
  res.correct =
      !traced.empty() && outputs_agree(plain, traced, traced.size(), res.notes);

  layers.fill(res.layer, delta, tracer, tally_of(traced, traced.size()));
  // Tracing overhead: traced vs untraced host time of the same calls. The
  // picker's calibration runs inside the traced pass's resolve spans and
  // is already cached when the untraced pass repeats the calls, so it is
  // left out of the traced side.
  double traced_ms = 0, plain_ms = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    traced_ms += traced[i].host_ms;
    plain_ms += plain[i].host_ms;
  }
  for (const Span& s : tracer.spans())
    if (s.name == "resolve") traced_ms -= s.end_ms - s.start_ms;
  res.layer.set("trace.overhead_frac",
                plain_ms > 0 ? traced_ms / plain_ms - 1 : 0.0);
  res.layer.set("trace.calls", static_cast<double>(traced.size()));
  if (!cfg.spans_path.empty() && !tracer.write_json(cfg.spans_path))
    res.notes.push_back("could not write spans to " + cfg.spans_path);
  res.attempted = traced.size();
  for (const Call& c : traced)
    if (c.tally.errors > 0) ++res.failed;
  return res;
}

}  // namespace perfbench
