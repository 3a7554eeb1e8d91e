#include "psfft/psfft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "fft/fft.hpp"
#include "sfft/comb.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"

namespace cusfft::psfft {

using sfft::LoopPerm;

struct PsfftPlan::Impl {
  sfft::Params p;
  ThreadPool* pool = nullptr;
  perfmodel::CpuModel model;
  std::size_t n = 0, B = 0, L = 0, w_pad = 0, rounds = 0, mask = 0;
  std::shared_ptr<const signal::FlatFilter> filter;
  std::shared_ptr<const fft::Plan> bfft;

  Impl(sfft::Params params, ThreadPool& pl, perfmodel::CpuSpec spec)
      : p((params.validate(), std::move(params))),
        pool(&pl),
        model(spec),
        n(p.n),
        B(p.buckets()),
        L(p.total_loops()),
        mask(n - 1),
        filter(signal::get_flat_filter(n, B, p.filter)),
        bfft(fft::get_plan(B, fft::Direction::kForward)) {
    w_pad = filter->time.size();
    rounds = w_pad / B;
  }

  /// Steps 1-2 work-shared by bucket range (each worker accumulates its
  /// buckets over the strided taps — the OpenMP loop-splitting of [6]).
  void bin_parallel(std::span<const cplx> x, const LoopPerm& perm,
                    std::span<cplx> z) const {
    const u64 ai = perm.ai, tau = perm.tau;
    pool->parallel_for(B, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t b = lo; b < hi; ++b) {
        cplx acc{0.0, 0.0};
        for (std::size_t j = 0; j < rounds; ++j) {
          const u64 off = b + B * j;
          const u64 index = (tau + off * ai) & mask;
          acc += x[index] * filter->time[off];
        }
        z[b] = acc;
      }
    });
  }
};

PsfftPlan::PsfftPlan(sfft::Params params, ThreadPool& pool,
                     perfmodel::CpuSpec spec)
    : impl_(std::make_unique<Impl>(std::move(params), pool, spec)) {}

PsfftPlan::~PsfftPlan() = default;
PsfftPlan::PsfftPlan(PsfftPlan&&) noexcept = default;
PsfftPlan& PsfftPlan::operator=(PsfftPlan&&) noexcept = default;

const sfft::Params& PsfftPlan::params() const { return impl_->p; }
std::size_t PsfftPlan::buckets() const { return impl_->B; }

SparseSpectrum PsfftPlan::execute(std::span<const cplx> x,
                                  CpuExecStats* stats) const {
  const Impl& im = *impl_;
  if (x.size() != im.n)
    throw std::invalid_argument("PsfftPlan::execute: signal size mismatch");
  WallTimer wall;

  const double cores = static_cast<double>(im.model.spec().cores);
  const double ws = 16.0 * static_cast<double>(im.n);  // signal footprint
  perfmodel::CpuWork w_bin{"perm_filter", 0, 0, ws, 0, cores};
  perfmodel::CpuWork w_fft{"subfft", 0, 0, 0, 0, cores};
  perfmodel::CpuWork w_cut{"cutoff", 0, 0, 0, 0, 1};
  perfmodel::CpuWork w_loc{"loc", 0, 0, ws / 4, 0, cores};  // u32 score
  perfmodel::CpuWork w_est{"estimate", 0, 0, ws, 0, cores};

  Rng rng(im.p.seed);
  const auto perms = sfft::draw_loop_perms(im.n, im.L, rng);

  sfft::CombFilter comb;
  if (im.p.comb) {
    std::vector<u64> taus(im.p.comb_rounds);
    for (auto& t : taus) t = rng.next_below(im.n);
    comb = sfft::run_comb_filter(x, im.p.comb_w(), im.p.comb_keep(), taus);
    // One W-point FFT plus W scattered loads per round.
    const double W = static_cast<double>(comb.W);
    w_loc.random_accesses += W * static_cast<double>(im.p.comb_rounds);
    w_loc.flops += 5.0 * W * std::log2(W) *
                   static_cast<double>(im.p.comb_rounds);
  }

  std::vector<cvec> bucket_sets(im.L, cvec(im.B));
  std::vector<std::uint8_t> score(im.n, 0);
  std::vector<u64> hits;
  const auto threshold = static_cast<std::uint8_t>(im.p.threshold());
  const std::size_t cutoff = im.p.cutoff();

  for (std::size_t r = 0; r < im.L; ++r) {
    im.bin_parallel(x, perms[r], bucket_sets[r]);
    // Counters: one scattered signal load per tap; filter taps and bucket
    // writes stream.
    w_bin.random_accesses += static_cast<double>(im.w_pad);
    w_bin.streamed_bytes += 16.0 * (im.w_pad + im.B);
    w_bin.flops += 8.0 * static_cast<double>(im.w_pad);

    im.bfft->execute(bucket_sets[r]);
    const auto c = im.bfft->cost();
    w_fft.streamed_bytes += c.bytes;
    w_fft.flops += c.flops;

    if (r < im.p.loops_loc) {
      const auto selected = sfft::top_buckets(bucket_sets[r], cutoff);
      w_cut.streamed_bytes += 16.0 * static_cast<double>(im.B);
      w_cut.flops += 3.0 * static_cast<double>(im.B);

      sfft::vote_locations(selected, perms[r], im.n, im.B, threshold, score,
                           hits, comb.approved);
      w_loc.random_accesses +=
          static_cast<double>(selected.size() * (im.n / im.B));
      w_loc.flops += 4.0 * static_cast<double>(selected.size() *
                                               (im.n / im.B));
    }
  }

  // Step 6: estimation, work-shared by candidate.
  SparseSpectrum out(hits.size());
  im.pool->parallel_for(hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = {hits[i], sfft::estimate_coef(hits[i], perms, bucket_sets,
                                             im.filter->freq, im.n, im.B)};
  });
  w_est.random_accesses += 2.0 * static_cast<double>(hits.size() * im.L);
  w_est.flops += 60.0 * static_cast<double>(hits.size() * im.L);

  std::sort(out.begin(), out.end(),
            [](const SparseCoef& a, const SparseCoef& b) {
              return a.loc < b.loc;
            });

  if (stats) {
    stats->host_ms = wall.ms();
    stats->model_ms = 0;
    stats->step_model_ms.clear();
    const std::pair<const char*, const perfmodel::CpuWork*> phases[] = {
        {sfft::step::kPermFilter, &w_bin}, {sfft::step::kSubFft, &w_fft},
        {sfft::step::kCutoff, &w_cut},     {sfft::step::kLocRecover, &w_loc},
        {sfft::step::kEstimate, &w_est}};
    for (const auto& [name, work] : phases) {
      const double ms = im.model.phase_cost_s(*work) * 1e3;
      stats->step_model_ms[name] = ms;
      stats->model_ms += ms;
    }
  }
  return out;
}

}  // namespace cusfft::psfft
