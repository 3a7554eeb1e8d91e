#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/rng.hpp"

namespace perfbench {

using cusfft::SparseSpectrum;
using cusfft::u64;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double windowed_quantile(std::span<const double> samples, double q,
                         std::size_t window) {
  if (window == 0 || samples.size() < window)
    return quantile({samples.begin(), samples.end()}, q);
  std::vector<double> per_window;
  for (std::size_t lo = 0; lo + window <= samples.size(); lo += window)
    per_window.push_back(quantile(
        {samples.begin() + lo, samples.begin() + lo + window}, q));
  return median(std::move(per_window));
}

Score score(const SparseSpectrum& got, const SparseSpectrum& truth) {
  Score s;
  s.empty = got.empty();
  const std::size_t k = truth.size();
  if (k == 0) return s;
  // Locations may repeat in a malformed output; the last value wins, as it
  // would when densified.
  std::map<u64, cusfft::cplx> rec;
  for (const cusfft::SparseCoef& c : got) rec[c.loc] = c.val;
  std::size_t hits = 0;
  double l1 = 0;
  for (const cusfft::SparseCoef& t : truth) {
    const auto it = rec.find(t.loc);
    if (it == rec.end()) {
      l1 += std::abs(t.val);
      continue;
    }
    ++hits;
    l1 += std::abs(it->second - t.val);
    rec.erase(it);
  }
  for (const auto& [loc, val] : rec) l1 += std::abs(val);  // false positives
  s.recall = static_cast<double>(hits) / static_cast<double>(k);
  s.l1 = l1 / static_cast<double>(k);
  return s;
}

void Tally::add(const Score& s) {
  ++attempted;
  if (!s.empty && s.recall >= kRecallFloor) ++recovered;
  recall_sum += s.recall;
  l1_sum += s.l1;
}

void Tally::add_error() {
  ++attempted;
  ++errors;
}

void Tally::merge(const Tally& o) {
  attempted += o.attempted;
  errors += o.errors;
  recovered += o.recovered;
  recall_sum += o.recall_sum;
  l1_sum += o.l1_sum;
}

double Tally::failed_frac() const {
  return attempted ? static_cast<double>(failed()) / attempted : 0.0;
}

double Tally::recovered_frac() const {
  return attempted ? static_cast<double>(recovered) / attempted : 0.0;
}

double Tally::mean_recall() const {
  return attempted ? recall_sum / static_cast<double>(attempted) : 0.0;
}

double Tally::mean_l1() const {
  const std::size_t scored = attempted - errors;
  return scored ? l1_sum / static_cast<double>(scored) : 0.0;
}

double Tally::goodput(double seconds) const {
  return seconds > 0 ? static_cast<double>(recovered) / seconds : 0.0;
}

u64 spectrum_hash(const SparseSpectrum& s) {
  u64 h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const cusfft::SparseCoef& c : s) {
    const double re = c.val.real(), im = c.val.imag();
    mix(&c.loc, sizeof c.loc);
    mix(&re, sizeof re);
    mix(&im, sizeof im);
  }
  return h;
}

bool backlog_growing(std::span<const double> sojourn_ms, double limit_ms) {
  const std::size_t q = sojourn_ms.size() / 4;
  if (q == 0) return false;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += sojourn_ms[i];
    last += sojourn_ms[sojourn_ms.size() - q + i];
  }
  return (last - first) / static_cast<double>(q) > limit_ms;
}

RungOutcome judge_rung(double rate, std::span<const double> latency_class_ms,
                       std::span<const double> all_sojourn_ms,
                       std::size_t failed, double limit_ms) {
  RungOutcome r;
  r.rate = rate;
  r.p99_ms = quantile({latency_class_ms.begin(), latency_class_ms.end()},
                      0.99);
  r.failed = failed;
  r.backlog = backlog_growing(all_sojourn_ms, limit_ms);
  r.pass = !latency_class_ms.empty() && r.p99_ms <= limit_ms &&
           failed == 0 && !r.backlog;
  return r;
}

double qps_max(std::span<const double> ladder,
               const std::function<RungOutcome(double)>& evaluate,
               int refine, std::vector<RungOutcome>* probes) {
  auto probe = [&](double rate) {
    const RungOutcome r = evaluate(rate);
    if (probes != nullptr) probes->push_back(r);
    return r.pass;
  };
  double lo = 0, hi = 0;
  for (const double rate : ladder) {
    if (!probe(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  if (hi == 0 || lo == 0) return lo;  // every rung passed, or none did
  for (int i = 0; i < refine; ++i) {
    const double mid = std::sqrt(lo * hi);
    (probe(mid) ? lo : hi) = mid;
  }
  return lo;
}

std::vector<double> poisson_arrivals(std::size_t n, double rate, u64 seed) {
  cusfft::Rng rng(seed);
  std::vector<double> t;
  t.reserve(n);
  double now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += -std::log(1.0 - rng.next_double()) * 1000.0 / rate;
    t.push_back(now);
  }
  return t;
}

std::vector<double> fifo_sojourns(std::span<const double> service_ms,
                                  std::span<const double> arrival_ms) {
  std::vector<double> out;
  out.reserve(service_ms.size());
  double free_at = 0;  // when the server finishes the previous call
  for (std::size_t i = 0; i < service_ms.size(); ++i) {
    const double start = std::max(free_at, arrival_ms[i]);
    free_at = start + service_ms[i];
    out.push_back(free_at - arrival_ms[i]);
  }
  return out;
}

}  // namespace perfbench
