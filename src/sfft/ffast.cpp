#include "sfft/ffast.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/modmath.hpp"

namespace cusfft::sfft {

std::vector<FfastStage> ffast_stage_chain(std::size_t n,
                                          std::size_t base_bins,
                                          std::size_t stages) {
  std::vector<FfastStage> out;
  std::size_t offset = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    const std::size_t bins =
        std::min<std::size_t>(n, base_bins << std::min<std::size_t>(s, 62));
    // Once the doubling chain hits n, further stages would be copies of
    // the same full-resolution FFT — drop them.
    if (!out.empty() && out.back().bins == bins) break;
    out.push_back({bins, offset});
    offset += kFfastShifts * bins;
  }
  return out;
}

namespace {

struct Exponential {
  u64 freq = 0;
  cplx amp{0.0, 0.0};  // bucket-plane amplitude (F_s/n scaling included)
};

/// Solves the T x T complex linear system a * x = b in place by Gaussian
/// elimination with partial pivoting. Returns false when (numerically)
/// singular. a is row-major T x T.
bool solve_dense(std::vector<cplx>& a, std::vector<cplx>& b, std::size_t T) {
  for (std::size_t col = 0; col < T; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < T; ++r)
      if (std::abs(a[r * T + col]) > std::abs(a[piv * T + col])) piv = r;
    if (std::abs(a[piv * T + col]) < 1e-30) return false;
    if (piv != col) {
      for (std::size_t c = 0; c < T; ++c)
        std::swap(a[col * T + c], a[piv * T + c]);
      std::swap(b[col], b[piv]);
    }
    const cplx inv = 1.0 / a[col * T + col];
    for (std::size_t r = col + 1; r < T; ++r) {
      const cplx m = a[r * T + col] * inv;
      if (m == cplx{}) continue;
      for (std::size_t c = col; c < T; ++c) a[r * T + c] -= m * a[col * T + c];
      b[r] -= m * b[col];
    }
  }
  for (std::size_t r = T; r-- > 0;) {
    cplx acc = b[r];
    for (std::size_t c = r + 1; c < T; ++c) acc -= a[r * T + c] * b[c];
    b[r] = acc / a[r * T + r];
  }
  return true;
}

/// Roots of the monic polynomial x^T - p[0]*x^(T-1) - ... - p[T-1] by
/// Durand-Kerner (deterministic start; degree <= 3 converges in a handful
/// of sweeps). Roots we care about lie on the unit circle, so the fixed
/// iteration budget is ample; bad fits are rejected by verification later.
std::vector<cplx> poly_roots(std::span<const cplx> p) {
  const std::size_t T = p.size();
  auto eval = [&](cplx x) {
    cplx v = 1.0;
    for (std::size_t i = 0; i < T; ++i) v = v * x - p[i];
    return v;
  };
  std::vector<cplx> r(T);
  const cplx g(0.4, 0.9);  // the customary non-real seed point
  cplx acc = 1.0;
  for (auto& ri : r) ri = (acc *= g);
  for (int it = 0; it < 80; ++it) {
    double moved = 0.0;
    for (std::size_t i = 0; i < T; ++i) {
      cplx denom = 1.0;
      for (std::size_t j = 0; j < T; ++j)
        if (j != i) denom *= r[i] - r[j];
      if (std::abs(denom) < 1e-30) denom = 1e-30;
      const cplx delta = eval(r[i]) / denom;
      r[i] -= delta;
      moved = std::max(moved, std::abs(delta));
    }
    if (moved < 1e-14) break;
  }
  return r;
}

/// Attempts to explain one bucket's kFfastShifts plane values as exactly T
/// complex exponentials at integer frequencies congruent to j mod bins.
/// Verified against every plane before acceptance.
std::optional<std::vector<Exponential>> try_solve_ton(
    std::span<const cplx> z, std::size_t T, std::size_t j, std::size_t n,
    std::size_t bins, double scale) {
  const double tol = 1e-6 * scale;
  // Prony recurrence: z[i+T] = sum_t p[t] * z[i+T-1-t] for T rows.
  std::vector<cplx> A(T * T), rhs(T);
  for (std::size_t row = 0; row < T; ++row) {
    for (std::size_t t = 0; t < T; ++t) A[row * T + t] = z[row + T - 1 - t];
    rhs[row] = z[row + T];
  }
  std::vector<cplx> p = rhs;
  if (T == 1) {
    if (std::abs(A[0]) < 1e-30) return std::nullopt;
    p[0] = rhs[0] / A[0];
  } else if (!solve_dense(A, p, T)) {
    return std::nullopt;
  }
  const std::vector<cplx> roots = poly_roots(p);

  std::vector<Exponential> out;
  for (const cplx& w : roots) {
    // Alias-code roots are unit-modulus; snap the phase to the nearest
    // integer frequency and require it to hash into this bucket.
    if (std::abs(std::abs(w) - 1.0) > 0.1) return std::nullopt;
    double frac = std::arg(w) / kTwoPi * static_cast<double>(n);
    if (frac < 0) frac += static_cast<double>(n);
    const u64 f = static_cast<u64>(std::llround(frac)) % n;
    if (f % bins != j) return std::nullopt;
    for (const auto& e : out)
      if (e.freq == f) return std::nullopt;  // repeated root: wrong T
    out.push_back({f, cplx{}});
  }
  // Amplitudes from the first T planes with the snapped (exact) roots.
  std::vector<cplx> V(T * T), b(z.begin(), z.begin() + T);
  for (std::size_t c = 0; c < T; ++c)
    for (std::size_t t = 0; t < T; ++t)
      V[c * T + t] = std::polar(
          1.0, kTwoPi * static_cast<double>(out[t].freq) * c / n);
  if (T == 1) {
    b[0] = z[0];
  } else if (!solve_dense(V, b, T)) {
    return std::nullopt;
  }
  for (std::size_t t = 0; t < T; ++t) {
    if (std::abs(b[t]) < 1e-8 * scale) return std::nullopt;
    out[t].amp = b[t];
  }
  // Full verification: every plane must be reproduced.
  for (std::size_t c = 0; c < kFfastShifts; ++c) {
    cplx pred{};
    for (const auto& e : out)
      pred += e.amp * std::polar(1.0, kTwoPi * static_cast<double>(e.freq) *
                                          c / n);
    if (std::abs(pred - z[c]) > tol) return std::nullopt;
  }
  return out;
}

}  // namespace

SparseSpectrum ffast_peel(std::span<cplx> buckets,
                          std::span<const FfastStage> stages, std::size_t n) {
  double scale = 0.0;
  for (const cplx& z : buckets) scale = std::max(scale, std::abs(z));
  if (scale == 0.0) return {};
  const double floor = 1e-9 * scale;

  // Dirty tracking: a bucket is only (re)tried after something was peeled
  // out of it — failed multi-ton fits are not retried until they change.
  std::vector<std::vector<std::uint8_t>> dirty;
  dirty.reserve(stages.size());
  for (const auto& st : stages) dirty.emplace_back(st.bins, 1);

  std::vector<std::uint8_t> seen(n, 0);
  std::vector<cplx> z(kFfastShifts);
  SparseSpectrum out;
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const FfastStage& st = stages[s];
      for (std::size_t j = 0; j < st.bins; ++j) {
        if (!dirty[s][j]) continue;
        dirty[s][j] = 0;
        bool empty = true;
        for (std::size_t c = 0; c < kFfastShifts; ++c) {
          z[c] = buckets[st.offset + c * st.bins + j];
          empty = empty && std::abs(z[c]) <= floor;
        }
        if (empty) continue;
        std::optional<std::vector<Exponential>> hit;
        for (std::size_t T = 1; T <= kFfastMaxTon && !hit; ++T)
          hit = try_solve_ton(z, T, j, n, st.bins, scale);
        if (!hit) continue;
        for (const auto& e : *hit) {
          if (seen[e.freq]) continue;  // float echo of a peeled line
          seen[e.freq] = 1;
          const double bin_scale =
              static_cast<double>(st.bins) / static_cast<double>(n);
          out.push_back({e.freq, e.amp / bin_scale});
          // Peel it from every stage (including this one).
          for (std::size_t t = 0; t < stages.size(); ++t) {
            const FfastStage& tt = stages[t];
            const std::size_t jt = static_cast<std::size_t>(e.freq % tt.bins);
            const cplx base =
                e.amp * (static_cast<double>(tt.bins) / st.bins);
            const cplx rot = std::polar(
                1.0, kTwoPi * static_cast<double>(e.freq) / n);
            cplx term = base;
            for (std::size_t c = 0; c < kFfastShifts; ++c) {
              buckets[tt.offset + c * tt.bins + jt] -= term;
              term *= rot;
            }
            dirty[t][jt] = 1;
            progress = true;
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SparseCoef& a, const SparseCoef& b) {
              return a.loc < b.loc;
            });
  return out;
}

FfastPlan::FfastPlan(Params p) : p_(std::move(p)) {
  p_.validate();
  stages_ = ffast_stage_chain(p_.n, p_.ffast_bins(), p_.ffast_stages);
  ffts_.reserve(stages_.size());
  for (const auto& st : stages_)
    ffts_.push_back(fft::get_plan(st.bins, fft::Direction::kForward));
}

SparseSpectrum FfastPlan::execute(std::span<const cplx> x,
                                  StepTimers* timers) const {
  const std::size_t n = p_.n;
  auto timed = [&](const char* name) {
    return timers ? std::optional<StepTimers::Scope>(std::in_place, *timers,
                                                     name)
                  : std::nullopt;
  };

  const FfastStage& last = stages_.back();
  cvec buckets(last.offset + kFfastShifts * last.bins);
  {
    auto sc = timed(ffast_step::kSubsample);
    for (const auto& st : stages_) {
      const std::size_t L = n / st.bins;
      for (std::size_t c = 0; c < kFfastShifts; ++c) {
        cplx* z = buckets.data() + st.offset + c * st.bins;
        std::size_t idx = c;  // (L*m + c) mod n; c < kFfastShifts <= n
        for (std::size_t m = 0; m < st.bins; ++m) {
          z[m] = x[idx];
          idx += L;
          if (idx >= n) idx -= n;
        }
      }
    }
  }
  {
    auto sc = timed(ffast_step::kStageFft);
    for (std::size_t s = 0; s < stages_.size(); ++s)
      ffts_[s]->execute_batch(
          std::span<cplx>(buckets.data() + stages_[s].offset,
                          kFfastShifts * stages_[s].bins),
          kFfastShifts);
  }
  auto sc = timed(ffast_step::kPeel);
  return ffast_peel(buckets, stages_, n);
}

}  // namespace cusfft::sfft
