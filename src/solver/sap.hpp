#pragma once
// SAP — the Schwarz alternating procedure (Lüscher), used as a flexible
// right preconditioner for GCR and as the multigrid smoother.
//
// The lattice is partitioned into non-overlapping rectangular blocks,
// red/black colored by block-coordinate parity. One SAP cycle sweeps the
// red blocks, then the black blocks. Each block solve inverts the Wilson
// operator restricted to the block (Dirichlet cut: hopping terms leaving
// the block are dropped) with a few minimal-residual iterations.
//
// The residual rho = in - M out is kept block-locally, as in Lüscher's
// original scheme (hep-lat/0310048). A sweep over one color has two
// phases:
//   1. block MR in parallel over the swept blocks. Each adds its
//      correction delta to `out`; on the block's own sites its MR
//      residual becomes rho.
//   2. after the join, every site with a neighbour across a block face
//      in a swept block gains kappa times those crossing hops of delta
//      (M = 1 - kappa D, so off the block -M delta = kappa D delta).
// No full-lattice M apply is made. The update after the last sweep runs
// only when the caller asks for the residual (the V-cycle does).
//
// Why it matters at scale: the block solves touch only block-local data —
// in a distributed run they generate *no network traffic*. Only the
// boundary updates communicate (delta's ghost faces), and their compute
// is the fraction of a dslash's hops that cross block faces. SAP
// therefore trades halo bandwidth for local flops, which is exactly the
// crossover bench_sap models.
//
// Determinism: phase 1 writes only its own block's sites, and phase 2
// sums each site's crossing hops serially in a fixed order (mu = 0..3,
// forward then backward), so results are bit-identical for any pool size.

#include <bit>
#include <vector>

#include "dirac/wilson.hpp"
#include "solver/gcr.hpp"
#include "util/aligned.hpp"
#include "util/telemetry.hpp"

namespace lqcd {

struct SapParams {
  Coord block{4, 4, 4, 4};  ///< block extents (must divide lattice dims)
  int cycles = 4;           ///< SAP cycles per preconditioner apply
  int block_mr_iterations = 4;  ///< MR steps per block solve
};

template <typename T>
class SapPreconditioner final : public Preconditioner<T> {
 public:
  /// `m` must outlive the preconditioner.
  SapPreconditioner(const WilsonOperator<T>& m, const SapParams& params)
      : m_(&m), params_(params) {
    build_blocks();
  }

  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in) const override {
    apply(out, in, {});
  }

  /// out = S(in). A non-empty `residual` (distinct from `in` and `out`)
  /// also receives in - M out, for one more boundary update.
  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in,
             std::span<WilsonSpinor<T>> residual) const {
    const std::size_t n = in.size();
    const bool want_residual = !residual.empty();
    LQCD_REQUIRE(out.size() == n &&
                     n == static_cast<std::size_t>(
                              m_->geometry().volume()) &&
                     (!want_residual || residual.size() == n),
                 "SAP span sizes");
    if (delta_.size() != n) delta_.resize(n);
    if (!want_residual && rho_.size() != n) rho_.resize(n);
    if (telemetry::enabled()) {
      // Block-local Wilson applies, in site units: every cycle runs
      // block_mr_iterations MR steps over each block, and the red+black
      // sweeps together cover the full volume. Counted once per apply
      // (never inside the parallel sweep) so bench_mg can price the
      // smoother's fine-grid work next to dslash.site_applies.
      static telemetry::Counter& c_sites =
          telemetry::counter("dslash.block_site_applies");
      c_sites.add(static_cast<std::int64_t>(params_.cycles) *
                  params_.block_mr_iterations *
                  m_->geometry().volume());
    }
    const std::span<WilsonSpinor<T>> rho =
        want_residual ? residual : std::span<WilsonSpinor<T>>(rho_.data(), n);
    const std::span<WilsonSpinor<T>> delta(delta_.data(), n);

    blas::zero(out);
    blas::copy(rho, in);  // rho = in - M*0

    for (int cycle = 0; cycle < params_.cycles; ++cycle) {
      for (int color = 0; color < 2; ++color) {
        sweep_color(out, rho, delta, color);
        const bool last = cycle + 1 == params_.cycles && color == 1;
        if (!last || want_residual) update_boundary(rho, delta, color);
      }
    }
  }

  [[nodiscard]] double flops_per_apply() const override {
    return flops_per_apply(false);
  }

  /// Block MR work (~ block_mr_iterations local M per cycle) plus the
  /// boundary updates; `with_residual` adds the one after the last sweep.
  [[nodiscard]] double flops_per_apply(bool with_residual) const {
    const double local = params_.cycles *
                         static_cast<double>(params_.block_mr_iterations) *
                         m_->flops_per_apply();
    double boundary =
        params_.cycles * (boundary_flops_[0] + boundary_flops_[1]);
    if (!with_residual && params_.cycles > 0) boundary -= boundary_flops_[1];
    return local + boundary;
  }

  [[nodiscard]] const SapParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::vector<std::int64_t> sites;     // global cb indices
    std::vector<std::int32_t> fwd[Nd];   // local index of fwd nbr or -1
    std::vector<std::int32_t> bwd[Nd];   // local index of bwd nbr or -1
    int color = 0;
  };

  /// A site with neighbours across a block face in blocks of one color:
  /// bit 2 mu marks the forward crossing hop, bit 2 mu + 1 the backward.
  struct BoundarySite {
    std::int64_t site;
    unsigned hops;
  };

  void build_blocks() {
    const LatticeGeometry& geo = m_->geometry();
    Coord nb{};
    for (int mu = 0; mu < Nd; ++mu) {
      LQCD_REQUIRE(params_.block[mu] >= 1 &&
                       geo.dim(mu) % params_.block[mu] == 0,
                   "SAP block size must divide the lattice extent");
      nb[mu] = geo.dim(mu) / params_.block[mu];
    }
    const int nblocks = nb[0] * nb[1] * nb[2] * nb[3];
    blocks_.resize(static_cast<std::size_t>(nblocks));

    // Map every site to its block and local index.
    const std::int64_t vol = geo.volume();
    std::vector<std::int32_t> block_of(static_cast<std::size_t>(vol));
    std::vector<std::int32_t> local_of(static_cast<std::size_t>(vol));
    for (std::int64_t s = 0; s < vol; ++s) {
      const Coord x = geo.coords(s);
      Coord bc{};
      for (int mu = 0; mu < Nd; ++mu) bc[mu] = x[mu] / params_.block[mu];
      const int bid =
          bc[0] + nb[0] * (bc[1] + nb[1] * (bc[2] + nb[2] * bc[3]));
      Block& blk = blocks_[static_cast<std::size_t>(bid)];
      blk.color = (bc[0] + bc[1] + bc[2] + bc[3]) & 1;
      block_of[static_cast<std::size_t>(s)] = bid;
      local_of[static_cast<std::size_t>(s)] =
          static_cast<std::int32_t>(blk.sites.size());
      blk.sites.push_back(s);
    }
    // Local neighbor tables with the Dirichlet cut at block boundaries.
    // A cut hop carries its source block's correction into s, so it is a
    // crossing hop for that block's color. With an odd block count along
    // a direction, same-color blocks meet across the wrap, so swept sites
    // can receive crossing hops too.
    std::vector<unsigned> crossing[2];
    for (auto& c : crossing) c.assign(static_cast<std::size_t>(vol), 0u);
    const auto color_of = [&](std::int64_t s) {
      const std::int32_t b = block_of[static_cast<std::size_t>(s)];
      return blocks_[static_cast<std::size_t>(b)].color;
    };
    for (auto& blk : blocks_) {
      const auto bs = blk.sites.size();
      for (int mu = 0; mu < Nd; ++mu) {
        blk.fwd[mu].resize(bs);
        blk.bwd[mu].resize(bs);
      }
      for (std::size_t i = 0; i < bs; ++i) {
        const std::int64_t s = blk.sites[i];
        for (int mu = 0; mu < Nd; ++mu) {
          const std::int64_t f = geo.fwd(s, mu);
          const std::int64_t bwd = geo.bwd(s, mu);
          // A wrapping step is never block-internal unless the block spans
          // the whole extent in that direction.
          const bool fwd_in =
              block_of[static_cast<std::size_t>(f)] ==
                  block_of[static_cast<std::size_t>(s)] &&
              (!geo.fwd_wraps(s, mu) ||
               params_.block[mu] == geo.dim(mu));
          const bool bwd_in =
              block_of[static_cast<std::size_t>(bwd)] ==
                  block_of[static_cast<std::size_t>(s)] &&
              (!geo.bwd_wraps(s, mu) ||
               params_.block[mu] == geo.dim(mu));
          blk.fwd[mu][i] =
              fwd_in ? local_of[static_cast<std::size_t>(f)] : -1;
          blk.bwd[mu][i] =
              bwd_in ? local_of[static_cast<std::size_t>(bwd)] : -1;
          if (!fwd_in)
            crossing[color_of(f)][static_cast<std::size_t>(s)] |=
                1u << (2 * mu);
          if (!bwd_in)
            crossing[color_of(bwd)][static_cast<std::size_t>(s)] |=
                1u << (2 * mu + 1);
        }
      }
    }
    // Per-color boundary lists in ascending site order, priced at one
    // dslash hop per crossing hop plus the kappa scale and add per site.
    for (int c = 0; c < 2; ++c) {
      double hops = 0.0;
      for (std::int64_t s = 0; s < vol; ++s) {
        const unsigned h = crossing[c][static_cast<std::size_t>(s)];
        if (h == 0) continue;
        boundary_[c].push_back({s, h});
        hops += std::popcount(h);
      }
      boundary_flops_[c] = hops * (kDslashFlopsPerSite / (2.0 * Nd)) +
                           48.0 * static_cast<double>(boundary_[c].size());
    }
  }

  /// Masked block hopping: local spans, Dirichlet outside the block.
  template <int Mu>
  void accum_hop_block(WilsonSpinor<T>& acc, const Block& blk,
                       std::span<const WilsonSpinor<T>> in,
                       std::size_t i) const {
    const GaugeField<T>& u = m_->fermion_links();
    const std::int64_t s = blk.sites[i];
    if (const std::int32_t fl = blk.fwd[Mu][i]; fl >= 0)
      detail::hop_fwd<Mu>(acc, u(s, Mu), in[static_cast<std::size_t>(fl)]);
    if (const std::int32_t bl = blk.bwd[Mu][i]; bl >= 0)
      detail::hop_bwd<Mu>(acc, u(m_->geometry().bwd(s, Mu), Mu),
                          in[static_cast<std::size_t>(bl)]);
  }

  /// out_local = M_block in_local = in - kappa * masked_hop(in).
  void apply_block(const Block& blk, std::span<WilsonSpinor<T>> out,
                   std::span<const WilsonSpinor<T>> in) const {
    const T k = static_cast<T>(m_->kappa());
    for (std::size_t i = 0; i < blk.sites.size(); ++i) {
      WilsonSpinor<T> acc{};
      accum_hop_block<0>(acc, blk, in, i);
      accum_hop_block<1>(acc, blk, in, i);
      accum_hop_block<2>(acc, blk, in, i);
      accum_hop_block<3>(acc, blk, in, i);
      acc *= k;
      WilsonSpinor<T> r = in[i];
      r -= acc;
      out[i] = r;
    }
  }

  /// Phase 1: approximate solves on the blocks of `color` with
  /// `block_mr_iterations` MR steps. On its own sites each block adds its
  /// correction d to v, writes its MR residual to rho and d to delta.
  void sweep_color(std::span<WilsonSpinor<T>> v,
                   std::span<WilsonSpinor<T>> rho,
                   std::span<WilsonSpinor<T>> delta, int color) const {
    parallel_for_chunks(
        blocks_.size(),
        [&](std::size_t lo, std::size_t hi, std::size_t) {
          std::vector<WilsonSpinor<T>> d, r, q;
          for (std::size_t bi = lo; bi < hi; ++bi) {
            const Block& blk = blocks_[bi];
            if (blk.color != color) continue;
            const std::size_t bs = blk.sites.size();
            d.assign(bs, WilsonSpinor<T>{});
            r.resize(bs);
            q.resize(bs);
            for (std::size_t i = 0; i < bs; ++i)
              r[i] = rho[static_cast<std::size_t>(blk.sites[i])];
            for (int mr = 0; mr < params_.block_mr_iterations; ++mr) {
              apply_block(blk, std::span<WilsonSpinor<T>>(q),
                          std::span<const WilsonSpinor<T>>(r.data(), bs));
              Cplx<T> qr{};
              T qq{};
              for (std::size_t i = 0; i < bs; ++i) {
                qr += lqcd::dot(q[i], r[i]);
                qq += lqcd::norm2(q[i]);
              }
              if (qq <= T(0)) break;
              const Cplx<T> alpha(qr.re / qq, qr.im / qq);
              for (std::size_t i = 0; i < bs; ++i) {
                WilsonSpinor<T> t = r[i];
                t *= alpha;
                d[i] += t;
                WilsonSpinor<T> tq = q[i];
                tq *= alpha;
                r[i] -= tq;
              }
            }
            for (std::size_t i = 0; i < bs; ++i) {
              const auto s = static_cast<std::size_t>(blk.sites[i]);
              v[s] += d[i];
              rho[s] = r[i];
              delta[s] = d[i];
            }
          }
        });
  }

  /// Phase 2 after sweeping `color`: rho += kappa * (crossing hops of
  /// delta) at every site with a neighbour across a face in a swept
  /// block. Each site is written once, its hops summed in a fixed order.
  void update_boundary(std::span<WilsonSpinor<T>> rho,
                       std::span<const WilsonSpinor<T>> delta,
                       int color) const {
    const std::vector<BoundarySite>& sites = boundary_[color];
    const T k = static_cast<T>(m_->kappa());
    parallel_for(sites.size(), [&](std::size_t j) {
      const BoundarySite& b = sites[j];
      WilsonSpinor<T> acc{};
      accum_crossing<0>(acc, b, delta);
      accum_crossing<1>(acc, b, delta);
      accum_crossing<2>(acc, b, delta);
      accum_crossing<3>(acc, b, delta);
      acc *= k;
      rho[static_cast<std::size_t>(b.site)] += acc;
    });
  }

  template <int Mu>
  void accum_crossing(WilsonSpinor<T>& acc, const BoundarySite& b,
                      std::span<const WilsonSpinor<T>> delta) const {
    const LatticeGeometry& geo = m_->geometry();
    const GaugeField<T>& u = m_->fermion_links();
    if (b.hops & (1u << (2 * Mu))) {
      const std::int64_t sp = geo.fwd(b.site, Mu);
      detail::hop_fwd<Mu>(acc, u(b.site, Mu),
                          delta[static_cast<std::size_t>(sp)]);
    }
    if (b.hops & (1u << (2 * Mu + 1))) {
      const std::int64_t sm = geo.bwd(b.site, Mu);
      detail::hop_bwd<Mu>(acc, u(sm, Mu), delta[static_cast<std::size_t>(sm)]);
    }
  }

  const WilsonOperator<T>* m_;
  SapParams params_;
  std::vector<Block> blocks_;
  std::vector<BoundarySite> boundary_[2];  ///< per swept color
  double boundary_flops_[2] = {0.0, 0.0};  ///< one update per color
  mutable aligned_vector<WilsonSpinor<T>> rho_;
  mutable aligned_vector<WilsonSpinor<T>> delta_;
};

}  // namespace lqcd
