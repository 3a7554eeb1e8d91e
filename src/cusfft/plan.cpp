#include "cusfft/plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <vector>

#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "cufftsim/cufftsim.hpp"
#include "cusfft/batch_rollup.hpp"
#include "cusim/metrics.hpp"
#include "custhrust/reduce.hpp"
#include "custhrust/sort.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"

namespace cusfft::gpu {

using cusim::DeviceBuffer;
using cusim::LaunchCfg;
using cusim::StreamId;
using cusim::ThreadCtx;

namespace {
constexpr std::size_t kMaxLoops = 32;  // estimation kernel's register array

/// FNV-1a over a word sequence — the plan's captured-graph domain salt.
/// Everything that shapes a cacheable kernel's access pattern (sizes,
/// permutation draws, comb taus, option toggles) folds in, so two plans
/// share launch records only when their launches are actually identical.
struct SaltHash {
  u64 h = 1469598103934665603ULL;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};
}

struct GpuPlan::Impl {
  cusim::Device* dev = nullptr;
  sfft::Params p;
  Options opts;

  std::size_t n = 0, B = 0, L = 0, w_pad = 0, rounds = 0, mask = 0;
  std::size_t hits_cap = 0;
  u64 graph_salt = 0;                    // captured-graph domain (ctor)
  std::vector<sfft::LoopPerm> perms;     // same draw as the serial plan

  // Device-resident state every signal reads and none writes (allocated
  // once per plan, like a real cusFFT plan's cudaMallocs).
  DeviceBuffer<cplx> d_filter_time;   // w_pad
  DeviceBuffer<cplx> d_filter_freq;   // n
  DeviceBuffer<u64> d_ai, d_a, d_tau; // L each
  std::vector<StreamId> streams;      // GK110: up to 32 concurrent kernels

  // FFAST backend (Params::algo == kFfast): the geometric stage chain. Each
  // lane holds one device buffer of kFfastShifts planes per stage and one
  // batched cuFFT-sim plan per stage (batch = kFfastShifts, sizes differ
  // per stage). The layout matches sfft::FfastPlan exactly so the
  // downloaded planes feed the shared host-side peeling decoder
  // (sfft::ffast_peel); tests pin identical support vs the CPU plan and
  // values to FFT rounding (the stage FFTs run through cufftsim here).
  std::vector<sfft::FfastStage> ffast_stages;

  // sFFT 2.0 Comb prefilter (Params::comb).
  std::size_t comb_W = 0;
  std::vector<u64> comb_taus;

  // Pipelined batches (BatchMode::kPipelined) alternate signals between
  // two home streams, created on the first pipelined batch: the front
  // stage (transfer + comb + binning + FFT) of signal i+1 overlaps the
  // back stage (cutoff + vote + estimate + d2h) of signal i on the modeled
  // timeline. Fronts chain on the previous front's `binned` event and backs
  // on the previous back's `done` event, as a device holding one set of
  // front and one set of back scratch would need.
  std::vector<StreamId> home_streams;

  /// Everything one signal's kernel sequence writes. A batch runs its
  /// signals on lanes (run_lanes): lane 0 is allocated with the plan, more
  /// on the first batch wide enough to use them, from BufferPool::lanes().
  struct Lane {
    cusim::Lane exec;                   // warp tracer + accumulator
    cusim::DeviceView<cplx> signal;     // n — the caller's input
    DeviceBuffer<cplx> buckets;         // L*B (batched layout)
    DeviceBuffer<cplx> chunks;          // rounds*B — remapped A' (Section V.A)
    DeviceBuffer<u32> score;            // n
    DeviceBuffer<u32> hits;             // hits_cap
    DeviceBuffer<u32> num_hits;         // 1
    DeviceBuffer<cplx> est;             // grown to the most hits seen
    DeviceBuffer<double> keys;          // B (sort&select)
    DeviceBuffer<u32> vals;             // B
    DeviceBuffer<u32> selected;         // B (fast selection output)
    DeviceBuffer<u32> sel_count;        // 1
    DeviceBuffer<cplx> z;               // B staging for !batched_fft
    std::unique_ptr<cufftsim::Plan> fft;  // (B, L) batched, else (B, 1)
    DeviceBuffer<u32> comb_approved;    // W flags
    DeviceBuffer<cplx> comb_y;          // W aliased samples
    DeviceBuffer<double> comb_keys;     // W sort keys
    DeviceBuffer<u32> comb_vals;        // W sort values
    std::unique_ptr<cufftsim::Plan> comb_fft;  // (W, 1)
    std::vector<DeviceBuffer<cplx>> ffast;     // per stage: 6 * bins
    std::vector<std::unique_ptr<cufftsim::Plan>> ffast_ffts;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<cusim::DeviceLog> logs;  // one per signal of the last batch

  std::unique_ptr<Lane> make_lane() {
    auto ln = std::make_unique<Lane>();
    ln->signal = cusim::DeviceView<cplx>(n);
    if (p.algo == sfft::Algorithm::kFfast) {
      for (const auto& st : ffast_stages) {
        ln->ffast.emplace_back(sfft::kFfastShifts * st.bins);
        ln->ffast_ffts.push_back(std::make_unique<cufftsim::Plan>(
            *dev, st.bins, sfft::kFfastShifts));
      }
      return ln;
    }
    ln->buckets = DeviceBuffer<cplx>(L * B);
    if (opts.binning == Binning::kAsyncTransform)
      ln->chunks = DeviceBuffer<cplx>(rounds * B);
    ln->score = DeviceBuffer<u32>(n);
    ln->hits = DeviceBuffer<u32>(hits_cap);
    ln->num_hits = DeviceBuffer<u32>(1);
    if (opts.fast_selection) {
      ln->selected = DeviceBuffer<u32>(B);
      ln->sel_count = DeviceBuffer<u32>(1);
    } else {
      ln->keys = DeviceBuffer<double>(B);
      ln->vals = DeviceBuffer<u32>(B);
    }
    ln->fft = std::make_unique<cufftsim::Plan>(*dev, B,
                                               opts.batched_fft ? L : 1);
    ln->z = DeviceBuffer<cplx>(B);
    if (comb_W != 0) {
      ln->comb_approved = DeviceBuffer<u32>(comb_W);
      ln->comb_y = DeviceBuffer<cplx>(comb_W);
      ln->comb_keys = DeviceBuffer<double>(comb_W);
      ln->comb_vals = DeviceBuffer<u32>(comb_W);
      ln->comb_fft = std::make_unique<cufftsim::Plan>(*dev, comb_W, 1);
    }
    return ln;
  }

  /// Lanes 1..w-1 are plan state too: allocated on the owning thread,
  /// before a fresh capture opens, from BufferPool::lanes().
  void ensure_lanes(std::size_t w) {
    const cusim::BufferPool::PoolScope scope(cusim::BufferPool::lanes());
    while (lanes.size() < w) lanes.push_back(make_lane());
  }

  void ensure_home_streams() {
    if (home_streams.empty()) {
      home_streams.push_back(dev->create_stream());
      home_streams.push_back(dev->create_stream());
    }
  }

  // ---------------- kernels ----------------

  /// Steps 1-2, Algorithm 2: loop partition, one thread per bucket.
  void k_perm_filter_partition(Lane& ln, std::size_t r,
                               DeviceBuffer<cplx>& dst,
                               std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    // Index mapping (Fig. 3): index(off) = (tau + off*ai) mod n. Per round
    // off advances by B, so the index advances by the constant B*ai — mod
    // 2^k arithmetic under the mask is exact, turning the per-round 64-bit
    // multiply into an add+mask. Accumulating the re/im planes as plain
    // doubles is the same naive product complex operator* lowers to for
    // finite values: buckets stay bit-identical.
    const u64 step = (B * ai) & mask;
    dev->launch(LaunchCfg::for_elements("pf_partition", B, 256, s).cache(r),
                [&, ai, tau, step, dst_off](ThreadCtx& t) {
                  const u64 tid = t.global_id();
                  if (tid >= B) return;
                  double mr = 0.0, mi = 0.0;
                  u64 index = (tau + tid * ai) & mask;
                  for (std::size_t j = 0; j < rounds; ++j) {
                    const u64 off = tid + B * j;
                    const cplx xv = ln.signal.load(t, index);
                    const cplx fv = d_filter_time.load(t, off);
                    mr += xv.real() * fv.real() - xv.imag() * fv.imag();
                    mi += xv.real() * fv.imag() + xv.imag() * fv.real();
                    index = (index + step) & mask;
                    t.add_flops(10);
                  }
                  dst.store(t, dst_off + tid, cplx{mr, mi});
                });
  }

  /// Section V.A: remap chunk c into coalesced order on its own stream.
  void k_remap(Lane& ln, std::size_t r, std::size_t c, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_remap", B, 256, s)
                    .cache((static_cast<u64>(r) << 32) | c),
                [&, ai, tau, c](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  const u64 off = c * B + i;
                  const u64 index = (tau + off * ai) & mask;
                  ln.chunks.store(t, off, ln.signal.load(t, index));
                });
  }

  /// Section V.A: execute kernel — consumes the reordered chunk, all
  /// accesses coalesced. The per-chunk products land on the chunk they
  /// were read from: a separate product buffer would see the same traffic
  /// (every buffer is 256-byte aligned) and cost each lane rounds*B more
  /// host memory.
  void k_execute_chunk(Lane& ln, std::size_t c, StreamId s) {
    dev->launch(LaunchCfg::for_elements("pf_execute", B, 256, s).cache(c),
                [&, c](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  const u64 off = c * B + i;
                  t.add_flops(6);
                  ln.chunks.store(t, off, ln.chunks.load(t, off) *
                                              d_filter_time.load(t, off));
                });
  }

  /// Section V.A: combine per-chunk products into the loop's buckets.
  void k_combine(Lane& ln, DeviceBuffer<cplx>& dst, std::size_t dst_off,
                 StreamId s) {
    dev->launch(
        LaunchCfg::for_elements("pf_combine", B, 256, s).cache(dst_off),
        [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  cplx acc{0.0, 0.0};
                  for (std::size_t c = 0; c < rounds; ++c) {
                    acc += ln.chunks.load(t, c * B + i);
                    t.add_flops(2);
                  }
                  dst.store(t, dst_off + i, acc);
                });
  }

  /// Ablation: the conventional histogram kernel — one thread per filter
  /// tap, atomicAdd into the shared bucket array (the approach Section IV.C
  /// argues against).
  void k_atomic_histogram(Lane& ln, std::size_t r, DeviceBuffer<cplx>& dst,
                          std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    dev->launch(LaunchCfg::for_elements("pf_atomic_hist", w_pad, 256, s),
                [&, ai, tau, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= w_pad) return;
                  const u64 index = (tau + i * ai) & mask;
                  const cplx v = ln.signal.load(t, index) *
                                 d_filter_time.load(t, i);
                  t.add_flops(8);
                  dst.atomic_add(t, dst_off + (i % B), v);
                });
  }

  /// Section IV.C's shared-memory alternative: per-block sub-histograms in
  /// on-chip memory, merged into the global buckets with atomics. The plan
  /// constructor guarantees B complex doubles fit the 48 KB shared memory
  /// (the configuration the paper shows is usually impossible).
  ///
  /// The simulator executes threads of a block consecutively, so the
  /// per-block sub-histogram lives in a closure-local array that is flushed
  /// (with traced global atomics) whenever the block index advances.
  void k_shared_histogram(Lane& ln, std::size_t r, DeviceBuffer<cplx>& dst,
                          std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    std::vector<cplx> sub(B, cplx{});
    u32 current_block = 0;
    auto flush = [&](ThreadCtx& t) {
      for (std::size_t b = 0; b < B; ++b) {
        if (sub[b] != cplx{}) {
          dst.atomic_add(t, dst_off + b, sub[b]);
          sub[b] = cplx{};
        }
      }
    };
    // The closure-local sub-histogram emulates per-block shared memory by
    // relying on blocks executing in order, as every launch sweeps them.
    dev->launch(LaunchCfg::for_elements("pf_shared_hist", w_pad, 256, s),
                [&, ai, tau](ThreadCtx& t) {
                  if (t.block_idx != current_block) {
                    flush(t);  // previous block's merge stage
                    current_block = t.block_idx;
                  }
                  const u64 i = t.global_id();
                  if (i >= w_pad) return;
                  const u64 index = (tau + i * ai) & mask;
                  const cplx v = ln.signal.load(t, index) *
                                 d_filter_time.load(t, i);
                  t.add_flops(8);
                  t.record_shared(2);  // shared-memory atomic update
                  sub[i % B] += v;
                });
    // Merge of the final block.
    dev->launch(LaunchCfg::for_elements("pf_shared_merge", B, 256, s),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.record_shared(1);
                  if (sub[i] != cplx{})
                    dst.atomic_add(t, dst_off + i, sub[i]);
                });
  }

  /// Ablation: binning without index mapping — the loop-carried index chain
  /// of Algorithm 1 admits no parallelism, so the whole loop runs on one
  /// thread (the paper's starting point).
  void k_serial_chain(Lane& ln, std::size_t r, DeviceBuffer<cplx>& dst,
                      std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    LaunchCfg cfg;
    cfg.name = "pf_serial_chain";
    cfg.blocks = 1;
    cfg.threads_per_block = 1;
    cfg.stream = s;
    dev->launch(cfg, [&, ai, tau, dst_off](ThreadCtx& t) {
      u64 index = tau & mask;
      for (std::size_t i = 0; i < w_pad; ++i) {
        const cplx v =
            ln.signal.load(t, index) * d_filter_time.load(t, i);
        const std::size_t b = dst_off + (i % B);
        dst.store(t, b, dst.load(t, b) + v);
        t.add_flops(10);
        index = (index + ai) & mask;  // the dependent update
      }
    });
  }

  /// Step 4 baseline (Algorithm 3): sort & select on |bucket|^2 keys.
  /// Leaves the selected bucket indices in ln.vals[0..cutoff).
  std::size_t cutoff_sort_select(Lane& ln, std::size_t r, StreamId s) {
    dev->launch(LaunchCfg::for_elements("cutoff_keys", B, 256, s).cache(r),
                [&, r](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.add_flops(3);
                  ln.keys.store(t, i,
                                std::norm(ln.buckets.load(t, r * B + i)));
                  ln.vals.store(t, i, static_cast<u32>(i));
                });
    custhrust::sort_pairs_desc(*dev, ln.keys, ln.vals, opts.sort_algo, s);
    return p.cutoff();
  }

  /// Step 4 optimized (Algorithm 6): linear threshold selection. Leaves the
  /// selected indices in ln.selected[0..count).
  std::size_t cutoff_fast_select(Lane& ln, std::size_t r, StreamId s) {
    // RMS of this loop's buckets -> threshold (Section V.B: "same order as
    // the small noise coefficients").
    double norm2 = 0.0;
    {
      // View of loop r's buckets: reuse z as a staging copy to keep the
      // reduction primitive simple (one coalesced copy kernel).
      dev->launch(LaunchCfg::for_elements("cutoff_stage", B, 256, s).cache(r),
                  [&, r](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i < B)
                      ln.z.store(t, i, ln.buckets.load(t, r * B + i));
                  });
      norm2 = custhrust::reduce_norm2(*dev, ln.z, s);
    }
    const double thresh2 = norm2 / static_cast<double>(B);

    dev->launch(LaunchCfg::for_elements("select_reset", 1, 1, s).cache(0),
                [&](ThreadCtx& t) { ln.sel_count.store(t, 0, 0); });
    // The atomic slot counter defines ln.selected's layout: threads run in
    // order, so the selected list comes out ascending.
    dev->launch(LaunchCfg::for_elements("fast_select", B, 256, s),
                [&, r, thresh2](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.add_flops(3);
                  if (std::norm(ln.buckets.load(t, r * B + i)) >= thresh2) {
                    const u32 slot = ln.sel_count.atomic_add(t, 0, u32{1});
                    if (slot < ln.selected.size())
                      ln.selected.store(t, slot, static_cast<u32>(i));
                  }
                });
    return std::min<std::size_t>(ln.sel_count.host()[0], ln.selected.size());
  }

  /// sFFT 2.0 Comb prefilter on the device: subsample + W-point FFT +
  /// sort&select per round, union the approved residues. (The embedded
  /// sort's kernels report under the cutoff step — a known attribution
  /// quirk of the per-step profile.)
  void run_comb(Lane& ln, StreamId s) {
    const std::size_t W = comb_W;
    const std::size_t stride = n / W;
    const std::size_t keep = std::min(p.comb_keep(), W);
    dev->launch(LaunchCfg::for_elements("comb_clear", W, 256, s).cache(W),
                [&](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < W) ln.comb_approved.store(t, i, 0);
                });
    for (const u64 tau : comb_taus) {
      dev->launch(
          LaunchCfg::for_elements("comb_subsample", W, 256, s).cache(tau),
                  [&, tau, stride](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= W) return;
                    ln.comb_y.store(
                        t, i, ln.signal.load(t, (i * stride + tau) & mask));
                  });
      ln.comb_fft->execute(ln.comb_y, cufftsim::Direction::kForward, s);
      dev->launch(LaunchCfg::for_elements("comb_keys", W, 256, s).cache(W),
                  [&](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= W) return;
                    t.add_flops(3);
                    ln.comb_keys.store(t, i,
                                       std::norm(ln.comb_y.load(t, i)));
                    ln.comb_vals.store(t, i, static_cast<u32>(i));
                  });
      custhrust::sort_pairs_desc(*dev, ln.comb_keys, ln.comb_vals,
                                 opts.sort_algo, s);
      dev->launch(LaunchCfg::for_elements("comb_mark", keep, 256, s),
                  [&, keep](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= keep) return;
                    ln.comb_approved.store(t, ln.comb_vals.load(t, i), 1);
                  });
    }
  }

  /// Step 5, Algorithm 4: reverse hash + vote, one thread per selected
  /// bucket, atomics on the score array. In comb mode, only residues the
  /// prefilter approved receive votes.
  void k_loc_recover(Lane& ln, std::size_t r,
                     const DeviceBuffer<u32>& selected,
                     std::size_t count, StreamId s) {
    const u64 a = perms[r].a;
    const u64 width = n / B;
    const auto threshold = static_cast<u32>(p.threshold());
    const double nd = static_cast<double>(n), Bd = static_cast<double>(B);
    const bool has_comb = comb_W != 0;
    const u64 comb_mask = has_comb ? comb_W - 1 : 0;
    dev->launch(
        LaunchCfg::for_elements("loc_recover", count, 256, s),
        [&, a, width, threshold, nd, Bd, count, has_comb,
         comb_mask](ThreadCtx& t) {
          const u64 tid = t.global_id();
          if (tid >= count) return;
          const u32 j = selected.load(t, tid);
          const u64 low = static_cast<u64>(
              std::ceil((static_cast<double>(j) - 0.5) * nd / Bd) + nd) &
              mask;
          u64 loc = mod_mul(low, a, n);
          t.add_flops(8);
          for (u64 step = 0; step < width; ++step) {
            const bool approved =
                !has_comb ||
                ln.comb_approved.load(t, loc & comb_mask) != 0;
            if (approved) {
              const u32 old = ln.score.atomic_add(t, loc, u32{1});
              if (old + 1 == threshold) {
                const u32 slot = ln.num_hits.atomic_add(t, 0, u32{1});
                if (slot < ln.hits.size())
                  ln.hits.store(t, slot, static_cast<u32>(loc));
              }
            }
            loc += a;
            if (loc >= n) loc -= n;
          }
        });
  }

  /// Step 6, Algorithm 5 (plus the tau phase correction; DESIGN.md §6):
  /// one thread per candidate, median over the L loops.
  void k_estimate(Lane& ln, std::size_t count, StreamId s) {
    const u64 n_div_B = n / B;
    dev->launch(
        LaunchCfg::for_elements("estimate", count, 256, s),
        [&, n_div_B, count](ThreadCtx& t) {
          const u64 tid = t.global_id();
          if (tid >= count) return;
          const u64 f = ln.hits.load(t, tid);
          double re[kMaxLoops], im[kMaxLoops];
          for (std::size_t r = 0; r < L; ++r) {
            const u64 ai = d_ai.load(t, r);
            const u64 tau = d_tau.load(t, r);
            const u64 permuted = (ai * f) & mask;
            u64 hashed = permuted / n_div_B;
            i64 dist = static_cast<i64>(permuted % n_div_B);
            if (static_cast<u64>(dist) > n_div_B / 2) {
              hashed = (hashed + 1) % B;
              dist -= static_cast<i64>(n_div_B);
            }
            const u64 fi = static_cast<u64>(
                (static_cast<i64>(n) - dist) & static_cast<i64>(mask));
            const cplx g = d_filter_freq.load(t, fi);
            const cplx bucket = ln.buckets.load(t, r * B + hashed);
            const double ang = -kTwoPi *
                               static_cast<double>((f * tau) & mask) /
                               static_cast<double>(n);
            const cplx v = bucket * static_cast<double>(n) *
                           cplx{std::cos(ang), std::sin(ang)} / g;
            t.add_flops(40);
            re[r] = v.real();
            im[r] = v.imag();
          }
          // Median per component (Algorithm 5 sorts and takes the middle;
          // Section III: real and imaginary parts separately).
          const std::size_t mid = (L - 1) / 2;
          std::nth_element(re, re + mid, re + L);
          std::nth_element(im, im + mid, im + L);
          t.add_flops(static_cast<double>(2 * L * 4));
          ln.est.store(t, tid, cplx{re[mid], im[mid]});
        });
  }

  /// Timeline markers of one signal's phase boundaries (for the per-phase
  /// spans of GpuSignalStats). Recorded via
  /// Device::annotate_phase so a collected CaptureProfile carries the same
  /// named spans. In pipelined batches these are stream-scoped events on
  /// the signal's home stream, so each signal's spans come from its own
  /// work even when signals overlap.
  struct PhaseEvents {
    std::size_t start = 0, setup = 0, binned = 0, voted = 0, done = 0;
  };

  /// Scheduling context for one signal of a batch. The default is the
  /// serialized path: device-wide annotations and sync points, stream 0.
  struct SignalCtx {
    StreamId s = 0;          // home stream for this signal's kernels
    bool pipelined = false;  // stream events instead of device-wide syncs
    // The back stage (cutoff/vote/estimate) waits for the previous
    // signal's `done` event — run_lanes' import 0 — as a device with one
    // set of back-stage scratch would.
    bool chain_back = false;
  };

  /// Phase labels — shared by GpuSignalStats::phase_span_ms keys and the
  /// capture profile's phase track.
  static constexpr const char* kPhaseTransfer = "a transfer+reset";
  static constexpr const char* kPhaseBin = "b comb+bin+fft";
  static constexpr const char* kPhaseVote = "c cutoff+vote";
  static constexpr const char* kPhaseEstimate = "d estimate+d2h";

  /// FFAST backend phase labels (same four boundary events, so the stats
  /// assembly is shape-identical; the names make the backend visible in a
  /// capture profile and in cusfft_phase_ms{phase=...}).
  static constexpr const char* kPhaseFfastBin = "b ffast subsample+fft";
  static constexpr const char* kPhaseFfastD2h = "c ffast d2h";
  static constexpr const char* kPhaseFfastPeel = "d ffast peel";

  /// The four phase-span keys of one signal under `algo`, in boundary
  /// order (start->setup->binned->voted->done).
  static std::array<const char*, 4> phase_labels(sfft::Algorithm algo) {
    if (algo == sfft::Algorithm::kFfast)
      return {kPhaseTransfer, kPhaseFfastBin, kPhaseFfastD2h, kPhaseFfastPeel};
    return {kPhaseTransfer, kPhaseBin, kPhaseVote, kPhaseEstimate};
  }

  /// The full kernel sequence for one signal on lane `ln`, inside an open
  /// capture (run_lanes calls it under a Device::LaneScope). Under
  /// ctx.pipelined the whole sequence issues on home stream ctx.s with
  /// stream events replacing the device-wide sync points, so two signals
  /// on alternating streams can overlap on the modeled timeline;
  /// functional execution is eager, so outputs are bit-identical
  /// regardless of ctx.
  SparseSpectrum exec_signal(Lane& ln, std::span<const cplx> x,
                             PhaseEvents& ev, const SignalCtx& ctx) {
    if (p.algo == sfft::Algorithm::kFfast)
      return exec_signal_ffast(ln, x, ev, ctx);
    cusim::Device& dev = *this->dev;
    if (x.size() != n)
      throw std::invalid_argument("GpuPlan::execute: signal size mismatch");
    // Scope cacheable launches to this plan's parameter draw. A device
    // shared by several plans switches domains here; records persist per
    // domain, so interleaved plans still replay their own captures.
    dev.set_graph_domain(graph_salt);
    ln.signal.bind(x);
    const StreamId hs = ctx.s;
    auto annotate = [&](const char* name) {
      return ctx.pipelined ? dev.annotate_phase(name, hs)
                           : dev.annotate_phase(name);
    };
    ev.start = annotate(kPhaseTransfer);

    // Input transfer (H2D), modeled when included (the GPU-resident
    // comparisons of Fig. 5a-d exclude it). The kernels read the caller's
    // input through the lane's signal view either way.
    if (opts.include_transfer) {
      dev.note_transfer("h2d", static_cast<double>(n * sizeof(cplx)), hs);
      // No kernel may consume the signal mid-transfer. On a pipelined home
      // stream FIFO order already guarantees that; serialized keeps the
      // device-wide sync.
      if (!ctx.pipelined) dev.sync_point();
    }

    // Reset per-signal state.
    dev.launch(LaunchCfg::for_elements("score_clear", n, 256, hs).cache(n),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < n) ln.score.store(t, i, 0);
               });
    dev.launch(LaunchCfg::for_elements("hits_reset", 1, 1, hs).cache(0),
               [&](ThreadCtx& t) { ln.num_hits.store(t, 0, 0); });

    ev.setup = annotate(kPhaseBin);

    // ---- sFFT 2.0 Comb prefilter (optional) ----
    if (comb_W != 0) {
      run_comb(ln, hs);
      if (!ctx.pipelined) dev.sync_point();
    }

    // ---- Steps 1-3: binning + subsampled FFT for all L loops ----
    // Pipelined: `gate` is the event each fan-out onto a chunk stream must
    // wait behind — initially everything this signal has issued so far,
    // advanced past each loop's combine so loop r+1's remaps cannot start
    // before loop r's chunks are consumed (the barrier gave that for free).
    std::size_t gate = ev.setup;
    for (std::size_t r = 0; r < L; ++r) {
      DeviceBuffer<cplx>& dst = opts.batched_fft ? ln.buckets : ln.z;
      const std::size_t dst_off = opts.batched_fft ? r * B : 0;

      switch (opts.binning) {
        case Binning::kSerialChain:
          k_serial_chain(ln, r, dst, dst_off, hs);
          break;
        case Binning::kAsyncTransform: {
          // Fig. 4: remap(c) -> execute(c) on stream c%32; chunks pipeline.
          const std::size_t nstreams = std::min(rounds, streams.size());
          for (std::size_t c = 0; c < rounds; ++c) {
            const StreamId s = streams[c % streams.size()];
            if (ctx.pipelined && c < nstreams) dev.wait_event(s, gate);
            k_remap(ln, r, c, s);
            k_execute_chunk(ln, c, s);
          }
          if (ctx.pipelined) {
            // Join the fan-out back onto the home stream (stream events
            // instead of a device-wide sync) before combining.
            for (std::size_t c = 0; c < nstreams; ++c)
              dev.wait_event(hs, dev.record_event(streams[c]));
          } else {
            dev.sync_point();
          }
          k_combine(ln, dst, dst_off, hs);
          if (ctx.pipelined) gate = dev.record_event(hs);
          break;
        }
        case Binning::kLoopPartition:
          k_perm_filter_partition(ln, r, dst, dst_off, hs);
          break;
        case Binning::kGlobalAtomicHist:
          k_atomic_histogram(ln, r, dst, dst_off, hs);
          break;
        case Binning::kSharedHist:
          k_shared_histogram(ln, r, dst, dst_off, hs);
          break;
      }

      if (!opts.batched_fft) {
        ln.fft->execute(ln.z, cufftsim::Direction::kForward, hs);
        dev.launch(LaunchCfg::for_elements("bucket_copy", B, 256, hs).cache(r),
                   [&, r](ThreadCtx& t) {
                     const u64 i = t.global_id();
                     if (i < B) ln.buckets.store(t, r * B + i, ln.z.load(t, i));
                   });
      }
    }
    if (opts.batched_fft) {
      // All loops binned before the single batched FFT: home-stream FIFO
      // covers it when pipelined.
      if (!ctx.pipelined) dev.sync_point();
      ln.fft->execute(ln.buckets, cufftsim::Direction::kForward, hs);
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.binned = annotate(kPhaseVote);

    // The back stage (cutoff/vote/estimate) chains behind the previous
    // signal's `done` event.
    if (ctx.pipelined && ctx.chain_back)
      dev.wait_event(hs, cusim::Device::imported_event(0));

    // ---- Steps 4-5 per location loop: cutoff + reverse hash voting ----
    for (std::size_t r = 0; r < p.loops_loc; ++r) {
      if (opts.fast_selection) {
        const std::size_t count = cutoff_fast_select(ln, r, hs);
        k_loc_recover(ln, r, ln.selected, count, hs);
      } else {
        const std::size_t count = cutoff_sort_select(ln, r, hs);
        k_loc_recover(ln, r, ln.vals, count, hs);
      }
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.voted = annotate(kPhaseEstimate);

    // ---- Step 6: estimation ----
    const std::size_t num_hits =
        std::min<std::size_t>(ln.num_hits.host()[0], ln.hits.size());
    // Canonicalize candidate order: hits arrive in vote-completion order.
    // Sorting (host-side, untraced) hands the estimation kernel its
    // candidates by location.
    std::sort(ln.hits.host().begin(), ln.hits.host().begin() + num_hits);
    // Estimates need num_hits slots, usually far below hits_cap (= n at
    // the paper's n/k): grow on demand instead of holding n per lane.
    if (ln.est.size() < num_hits)
      ln.est = DeviceBuffer<cplx>(std::max(num_hits, 2 * ln.est.size()));
    if (num_hits > 0) k_estimate(ln, num_hits, hs);

    // ---- D2H of the sparse result ----
    dev.note_transfer("d2h", static_cast<double>(num_hits) * (4 + 16), hs);
    if (ctx.pipelined) {
      ev.done = dev.record_event(hs);
      dev.close_phase(hs, ev.done);
    } else {
      ev.done = dev.record_event();
    }
    SparseSpectrum out;
    out.reserve(num_hits);
    for (std::size_t i = 0; i < num_hits; ++i)
      out.push_back({ln.hits.host()[i], ln.est.host()[i]});
    std::sort(out.begin(), out.end(),
              [](const SparseCoef& a, const SparseCoef& b) {
                return a.loc < b.loc;
              });
    return out;
  }

  /// The FFAST backend's sequence for one signal: per-stage subsample
  /// kernels + batched stage FFTs on the device, then D2H of the (tiny)
  /// plane buffers and the host-side peeling decode — the decoder is
  /// branch-heavy and data-dependent, exactly the shape Section IV argues
  /// off the GPU, and at O(sum_s F_s) buckets it is not the bottleneck.
  /// Honors the same SignalCtx contract as exec_signal; the back "stage"
  /// (d2h + peel) touches only the signal's own planes, so pipelined
  /// signals need no back-stage chaining.
  SparseSpectrum exec_signal_ffast(Lane& ln, std::span<const cplx> x,
                                   PhaseEvents& ev, const SignalCtx& ctx) {
    cusim::Device& dev = *this->dev;
    if (x.size() != n)
      throw std::invalid_argument("GpuPlan::execute: signal size mismatch");
    dev.set_graph_domain(graph_salt);
    ln.signal.bind(x);
    const StreamId hs = ctx.s;
    auto annotate = [&](const char* name) {
      return ctx.pipelined ? dev.annotate_phase(name, hs)
                           : dev.annotate_phase(name);
    };
    ev.start = annotate(kPhaseTransfer);
    if (opts.include_transfer) {
      dev.note_transfer("h2d", static_cast<double>(n * sizeof(cplx)), hs);
      if (!ctx.pipelined) dev.sync_point();
    }

    ev.setup = annotate(kPhaseFfastBin);
    // Plane c of stage s gathers x[(m * (n/F_s) + c) mod n] — the
    // shift-major layout sfft::FfastPlan uses, one kernel per stage
    // covering all kFfastShifts planes. The gathers are strided, but each
    // stage reads only 6*F_s of the n samples.
    for (std::size_t si = 0; si < ffast_stages.size(); ++si) {
      const std::size_t bins = ffast_stages[si].bins;
      const std::size_t step = n / bins;
      const std::size_t elems = sfft::kFfastShifts * bins;
      dev.launch(
          LaunchCfg::for_elements("ffast_subsample", elems, 256, hs)
              .cache(si),
          [&, si, bins, step, elems](ThreadCtx& t) {
            const u64 i = t.global_id();
            if (i >= elems) return;
            const u64 c = i / bins, m = i % bins;
            ln.ffast[si].store(t, i, ln.signal.load(t, (m * step + c) & mask));
          });
      ln.ffast_ffts[si]->execute(ln.ffast[si], cufftsim::Direction::kForward,
                                 hs);
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.binned = annotate(kPhaseFfastD2h);

    // ---- D2H of every stage's planes ----
    const sfft::FfastStage& last = ffast_stages.back();
    const std::size_t total = last.offset + sfft::kFfastShifts * last.bins;
    dev.note_transfer("d2h", static_cast<double>(total) * sizeof(cplx), hs);
    std::vector<cplx> planes(total);
    for (std::size_t si = 0; si < ffast_stages.size(); ++si) {
      const auto host = ln.ffast[si].host();
      std::copy(host.begin(), host.end(),
                planes.begin() +
                    static_cast<std::ptrdiff_t>(ffast_stages[si].offset));
    }
    ev.voted = annotate(kPhaseFfastPeel);

    // ---- Host-side peeling decode (no device work: the phase span is
    // ~0 on the modeled timeline; the decode cost shows up in host_ms) ----
    SparseSpectrum out = sfft::ffast_peel(planes, ffast_stages, n);
    if (ctx.pipelined) {
      ev.done = dev.record_event(hs);
      dev.close_phase(hs, ev.done);
    } else {
      ev.done = dev.record_event();
    }
    return out;
  }

  /// Runs every signal's kernel sequence on a lane — slot l of the
  /// device's pool runs a contiguous range of signals on lanes[l], which
  /// must exist (ensure_lanes(pool().chunks(size))) — then applies the
  /// signals' logs on the calling thread in signal order, so the device
  /// sees the serial program's calls whatever the lane count. Pipelined
  /// signals alternate home streams, chained by stream events; otherwise
  /// a device-wide sync follows every signal. The first failing signal's
  /// exception is rethrown once the logs before it, and its own up to the
  /// failure, are applied: the serial program's state. `ev` receives
  /// device event ids.
  std::vector<SparseSpectrum> run_lanes(
      std::span<const std::span<const cplx>> xs, bool pipelined,
      std::vector<PhaseEvents>& ev) {
    const std::size_t count = xs.size();
    if (logs.size() < count) logs.resize(count);
    std::vector<SparseSpectrum> out(count);
    std::vector<std::exception_ptr> errors(count);
    ev.assign(count, PhaseEvents{});
    dev->pool().parallel_for_indexed(
        count, [&](std::size_t lane, std::size_t begin, std::size_t end) {
          Lane& ln = *lanes[lane];
          for (std::size_t i = begin; i < end; ++i) {
            try {
              const cusim::Device::LaneScope scope(*dev, ln.exec, logs[i]);
              SignalCtx ctx;
              if (pipelined) {
                ctx.s = home_streams[i & 1];
                ctx.pipelined = true;
                ctx.chain_back = i > 0;
              }
              out[i] = exec_signal(ln, xs[i], ev[i], ctx);
            } catch (...) {
              errors[i] = std::current_exception();
              return;  // the serial program stops at its first failure
            }
          }
        });
    for (std::size_t i = 0; i < count; ++i) {
      // The previous signal's events have device ids by now: its `binned`
      // gates this front stage, its `done` (import 0) this back stage.
      const std::size_t prev_done = i > 0 ? ev[i - 1].done : 0;
      if (pipelined && i > 0)
        dev->wait_event(home_streams[i & 1], ev[i - 1].binned);
      dev->apply(logs[i], std::span<const std::size_t>(&prev_done, i > 0));
      if (errors[i]) std::rethrow_exception(errors[i]);
      for (std::size_t* id : {&ev[i].start, &ev[i].setup, &ev[i].binned,
                              &ev[i].voted, &ev[i].done})
        *id = logs[i].event_id(*id);
      if (!pipelined) dev->sync_point();
    }
    return out;
  }
};

GpuPlan::GpuPlan(cusim::Device& dev, sfft::Params params, Options opts)
    : impl_(std::make_unique<Impl>()) {
  params.validate();
  if (params.algo == sfft::Algorithm::kAuto)
    throw std::invalid_argument(
        "GpuPlan: Algorithm::kAuto must be resolved before plan "
        "construction (MultiGpuPlan::execute_mixed resolves it per signal; "
        "see cusfft/autopick.hpp)");
  Impl& im = *impl_;
  im.dev = &dev;
  im.p = params;
  im.opts = opts;
  im.n = params.n;
  im.mask = im.n - 1;

  if (params.algo == sfft::Algorithm::kFfast) {
    // FFAST plan: the stage chain and a lane of stage planes + batched FFT
    // plans. None of the cusFFT filter /
    // permutation / vote state exists on this plan — the backends share
    // only the Params and the device.
    im.ffast_stages = sfft::ffast_stage_chain(im.n, params.ffast_bins(),
                                              params.ffast_stages);
    im.B = im.ffast_stages.front().bins;
    {
      const double cxb = sizeof(cplx);
      double bytes = im.n * cxb;  // signal
      for (const auto& st : im.ffast_stages)
        bytes += 2.0 * sfft::kFfastShifts * st.bins * cxb;  // planes + FFT
      if (bytes > static_cast<double>(dev.spec().global_mem_bytes))
        throw cusim::OutOfDeviceMemory(
            "GpuPlan: plan needs " + std::to_string(bytes / 1e9) +
            " GB device memory, exceeding the device's " +
            std::to_string(dev.spec().global_mem_bytes / 1e9) + " GB");
    }
    // The FFAST graph domain: the algorithm tag plus everything that
    // shapes a cacheable kernel (n and the stage chain). Deterministic —
    // no permutation draws to fold in.
    SaltHash sh;
    sh.mix(static_cast<u64>(params.algo));
    sh.mix(im.n);
    for (const auto& st : im.ffast_stages) sh.mix(st.bins);
    im.graph_salt = sh.h;

    im.lanes.push_back(im.make_lane());
    return;
  }

  im.B = params.buckets();
  im.L = params.total_loops();
  if (im.L > kMaxLoops)
    throw std::invalid_argument("GpuPlan: at most 32 total loops supported");

  // Section IV.C: a per-block shared-memory sub-histogram needs B complex
  // doubles of the 48 KB usable shared memory — refuse when it cannot fit
  // (the paper's argument for the loop-partition kernel).
  if (opts.binning == Binning::kSharedHist &&
      im.B * sizeof(cplx) > dev.spec().shared_mem_per_sm - 16 * 1024)
    throw std::invalid_argument(
        "GpuPlan: B complex-double sub-histogram does not fit shared memory "
        "(Section IV.C) — use loop partition instead");

  // Device-memory budget (cudaMalloc would fail past the Table-I 6 GB).
  const auto [w_est, w_pad_est] =
      signal::flat_filter_sizes(im.n, im.B, params.filter);
  {
    const double cxb = sizeof(cplx);
    double bytes = im.n * cxb;            // signal
    bytes += im.n * cxb;                  // filter frequency response
    bytes += w_pad_est * cxb;             // filter taps
    bytes += im.L * im.B * cxb;           // bucket sets
    bytes += im.n * 4.0;                  // score
    bytes += (opts.batched_fft ? im.L : 1) * im.B * cxb;  // FFT work
    if (opts.binning == Binning::kAsyncTransform)
      bytes += 2.0 * w_pad_est * cxb;     // chunks + partials
    if (bytes > static_cast<double>(dev.spec().global_mem_bytes))
      throw cusim::OutOfDeviceMemory(
          "GpuPlan: plan needs " + std::to_string(bytes / 1e9) +
          " GB device memory, exceeding the device's " +
          std::to_string(dev.spec().global_mem_bytes / 1e9) + " GB");
  }

  // Shared immutable filter from the plan cache: repeated plans with the
  // same (n, B, window) skip the two plan-time length-n FFTs.
  const std::shared_ptr<const signal::FlatFilter> filter =
      signal::get_flat_filter(im.n, im.B, params.filter);
  im.w_pad = filter->time.size();
  im.rounds = im.w_pad / im.B;
  {
    Rng rng(params.seed);
    im.perms = sfft::draw_loop_perms(im.n, im.L, rng);
    if (params.comb) {
      im.comb_taus.resize(params.comb_rounds);
      for (auto& t : im.comb_taus) t = rng.next_below(im.n);
    }
  }
  {
    // Captured-graph domain salt: every input that shapes a cacheable
    // kernel's access pattern. Two plans replay each other's records only
    // when all of it matches (kernel shapes, permutation draws, option
    // toggles); anything else is namespaced apart.
    SaltHash sh;
    sh.mix(static_cast<u64>(params.algo));
    sh.mix(im.n);
    sh.mix(im.B);
    sh.mix(im.L);
    sh.mix(im.w_pad);
    sh.mix(static_cast<u64>(opts.binning));
    sh.mix(static_cast<u64>(opts.sort_algo));
    sh.mix(opts.batched_fft ? 1 : 0);
    sh.mix(opts.fast_selection ? 1 : 0);
    for (const auto& perm : im.perms) {
      sh.mix(perm.ai);
      sh.mix(perm.tau);
    }
    for (const u64 t : im.comb_taus) sh.mix(t);
    sh.mix(params.comb ? params.comb_w() : 0);
    im.graph_salt = sh.h;
  }
  im.hits_cap = std::min<std::size_t>(
      im.n, std::max<std::size_t>(1, params.loops_loc * params.cutoff() *
                                         (im.n / im.B)));

  // Device allocations + one-time uploads (plan setup, outside captures).
  im.d_filter_time = DeviceBuffer<cplx>(im.w_pad);
  im.d_filter_freq = DeviceBuffer<cplx>(im.n);
  std::copy(filter->time.begin(), filter->time.end(),
            im.d_filter_time.host().begin());
  std::copy(filter->freq.begin(), filter->freq.end(),
            im.d_filter_freq.host().begin());
  // Once device-resident the plan needs no host copy; the cache keeps one
  // shared host instance per (n, B, window) for later plans.
  im.d_ai = DeviceBuffer<u64>(im.L);
  im.d_a = DeviceBuffer<u64>(im.L);
  im.d_tau = DeviceBuffer<u64>(im.L);
  for (std::size_t r = 0; r < im.L; ++r) {
    im.d_ai.host()[r] = im.perms[r].ai;
    im.d_a.host()[r] = im.perms[r].a;
    im.d_tau.host()[r] = im.perms[r].tau;
  }
  for (unsigned i = 0; i < dev.spec().max_concurrent_kernels; ++i)
    im.streams.push_back(dev.create_stream());
  if (params.comb) im.comb_W = params.comb_w();
  im.lanes.push_back(im.make_lane());
}

GpuPlan::~GpuPlan() = default;
GpuPlan::GpuPlan(GpuPlan&&) noexcept = default;
GpuPlan& GpuPlan::operator=(GpuPlan&&) noexcept = default;

const sfft::Params& GpuPlan::params() const { return impl_->p; }
const Options& GpuPlan::options() const { return impl_->opts; }
std::size_t GpuPlan::buckets() const { return impl_->B; }

SparseSpectrum GpuPlan::execute(std::span<const cplx> x,
                                GpuBatchStats* stats) {
  return std::move(
      run_batch({&x, 1}, stats, BatchMode::kSerialized, /*fresh_capture=*/true)
          .front());
}

std::vector<SparseSpectrum> GpuPlan::execute_many(
    std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
    BatchMode mode) {
  return run_batch(xs, stats, mode, /*fresh_capture=*/true);
}

std::vector<SparseSpectrum> GpuPlan::run_batch(
    std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
    BatchMode mode, bool fresh_capture) {
  Impl& im = *impl_;
  cusim::Device& dev = *im.dev;
  // kAuto pipelines every real batch (>= 2 signals).
  const bool pipelined = mode == BatchMode::kPipelined ||
                         (mode == BatchMode::kAuto && xs.size() >= 2);

  WallTimer wall;
  // Lanes and home streams are plan state: allocate them before the
  // capture opens so a warm plan's capture still shows a zero pool delta.
  if (pipelined) im.ensure_home_streams();
  im.ensure_lanes(dev.pool().chunks(xs.size()));
  // One capture for the whole batch: every device buffer, the uploaded
  // filter, the cuFFT-sim plans and the stream pool are reused across
  // signals, so per-signal cost is purely the kernel sequence. A fleet
  // shard appends to its already-open capture instead — it runs several
  // plans' batches in one capture, so opening a fresh one here would erase
  // the earlier shape groups.
  if (fresh_capture) dev.begin_capture();
  // Pipelined: signal i+1's transfer + reset + binning (the front stage,
  // on the other home stream) overlaps signal i's cutoff/vote/estimate
  // (the back stage). See DESIGN.md for the dependency graph.
  std::vector<Impl::PhaseEvents> evs;
  std::vector<SparseSpectrum> out = im.run_lanes(xs, pipelined, evs);
  std::size_t candidates = 0;
  for (const SparseSpectrum& sp : out) candidates += sp.size();

  // Stats are assembled even when the caller passes nullptr so the
  // always-on registry sees every batch. Publication happens only for
  // fresh captures: an in-capture batch is one shard of a fleet batch,
  // and the fleet publishes once through GpuFleetStats::to_metrics with
  // the correct per-device attribution — recording here too would count
  // every fleet signal twice.
  GpuBatchStats local;
  GpuBatchStats& st = stats != nullptr ? *stats : local;
  st.model_ms = dev.elapsed_model_ms();
  st.host_ms = wall.ms();
  st.signals = xs.size();
  st.candidates = candidates;
  st.pipelined = pipelined;
  st.algo = im.p.algo;
  st.per_signal.clear();
  st.per_signal.reserve(xs.size());
  const auto labels = Impl::phase_labels(im.p.algo);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Each signal's window from its own events — coherent under overlap.
    const double t0 = dev.event_time_ms(evs[i].start);
    const double t1 = dev.event_time_ms(evs[i].setup);
    const double t2 = dev.event_time_ms(evs[i].binned);
    const double t3 = dev.event_time_ms(evs[i].voted);
    const double t4 = dev.event_time_ms(evs[i].done);
    GpuSignalStats sig;
    sig.start_ms = t0;
    sig.end_ms = t4;
    sig.candidates = out[i].size();
    sig.algo = im.p.algo;
    sig.phase_span_ms[labels[0]] = t1 - t0;
    sig.phase_span_ms[labels[1]] = t2 - t1;
    sig.phase_span_ms[labels[2]] = t3 - t2;
    sig.phase_span_ms[labels[3]] = t4 - t3;
    st.per_signal.push_back(std::move(sig));
  }
  if (fresh_capture) st.to_metrics(cusim::MetricsRegistry::global());
  return out;
}

void GpuBatchStats::to_metrics(cusim::MetricsRegistry& reg) const {
  reg.counter("cusfft_batches_total").inc();
  if (pipelined) reg.counter("cusfft_batches_pipelined_total").inc();
  reg.counter("cusfft_signals_total").add(signals);
  reg.counter(cusim::MetricsRegistry::label("cusfft_algo_signals_total",
                                            "algo", sfft::to_string(algo)))
      .add(signals);
  reg.counter("cusfft_candidates_total").add(candidates);
  reg.histogram("cusfft_batch_model_ms").observe(model_ms);
  reg.histogram("cusfft_batch_host_ms").observe(host_ms);
  for (const GpuSignalStats& sig : per_signal)
    detail::observe_signal_metrics(reg, sig, /*device=*/0);
}

const char* step_of_kernel(const std::string& k) {
  auto starts = [&](const char* pre) { return k.rfind(pre, 0) == 0; };
  if (starts("ffast_")) return sfft::ffast_step::kSubsample;
  if (starts("comb_")) return sfft::step::kComb;
  if (starts("pf_")) return sfft::step::kPermFilter;
  if (starts("cufft_") || starts("bucket_copy")) return sfft::step::kSubFft;
  if (starts("cutoff_") || starts("radix_") || starts("bitonic_") ||
      starts("scan_") || starts("reduce_") || starts("fast_select") ||
      starts("select_reset"))
    return sfft::step::kCutoff;
  if (starts("loc_recover") || starts("score_clear") || starts("hits_reset"))
    return sfft::step::kLocRecover;
  if (starts("estimate")) return sfft::step::kEstimate;
  if (starts("h2d") || starts("d2h")) return "0 transfer";
  return "other";
}

std::map<std::string, double> step_model_ms(const cusim::Device& dev) {
  std::map<std::string, double> steps;
  for (const auto& [name, rep] : dev.report())
    steps[step_of_kernel(name)] += rep.solo_s * 1e3;
  return steps;
}

}  // namespace cusfft::gpu
