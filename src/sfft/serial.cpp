#include "sfft/serial.hpp"

#include <algorithm>
#include <optional>

#include "core/rng.hpp"
#include "sfft/comb.hpp"

namespace cusfft::sfft {

SerialPlan::SerialPlan(Params p)
    : p_(std::move(p)),
      B_((p_.validate(), p_.buckets())),
      filter_(signal::get_flat_filter(p_.n, B_, p_.filter)),
      bfft_(fft::get_plan(B_, fft::Direction::kForward)) {}

SparseSpectrum SerialPlan::execute(std::span<const cplx> x,
                                   StepTimers* timers) const {
  const std::size_t n = p_.n;
  const std::size_t L = p_.total_loops();
  Rng rng(p_.seed);
  const std::vector<LoopPerm> perms = draw_loop_perms(n, L, rng);

  auto timed = [&](const char* name) {
    return timers ? std::optional<StepTimers::Scope>(std::in_place, *timers,
                                                     name)
                  : std::nullopt;
  };

  // Optional sFFT 2.0 Comb prefilter (same draw order as the GPU backend so
  // the candidate sets match exactly).
  CombFilter comb;
  if (p_.comb) {
    std::vector<u64> taus(p_.comb_rounds);
    for (auto& t : taus) t = rng.next_below(n);
    auto s = timed(step::kComb);
    comb = run_comb_filter(x, p_.comb_w(), p_.comb_keep(), taus);
  }

  std::vector<cvec> bucket_sets(L);
  std::vector<std::uint8_t> score(n, 0);
  std::vector<u64> hits;
  const auto threshold = static_cast<std::uint8_t>(p_.threshold());
  const std::size_t cutoff = p_.cutoff();

  for (std::size_t r = 0; r < L; ++r) {
    bucket_sets[r].resize(B_);
    {
      auto s = timed(step::kPermFilter);
      bin_permuted(x, filter_->time, perms[r], bucket_sets[r]);
    }
    {
      auto s = timed(step::kSubFft);
      bfft_->execute(bucket_sets[r]);
    }
    if (r < p_.loops_loc) {
      std::vector<u32> selected;
      {
        auto s = timed(step::kCutoff);
        selected = top_buckets(bucket_sets[r], cutoff);
      }
      {
        auto s = timed(step::kLocRecover);
        vote_locations(selected, perms[r], n, B_, threshold, score, hits,
                       comb.approved);
      }
    }
  }

  SparseSpectrum out;
  {
    auto s = timed(step::kEstimate);
    out.reserve(hits.size());
    for (u64 f : hits)
      out.push_back(
          {f, estimate_coef(f, perms, bucket_sets, filter_->freq, n, B_)});
  }
  std::sort(out.begin(), out.end(),
            [](const SparseCoef& a, const SparseCoef& b) {
              return a.loc < b.loc;
            });
  return out;
}

}  // namespace cusfft::sfft
