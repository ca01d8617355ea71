#pragma once
// Wilson fermion matrix.
//
// Hopping term (the "dslash"):
//
//   (D psi)(x) = sum_mu  (1 - gamma_mu) U_mu(x)       psi(x+mu)
//              +         (1 + gamma_mu) U_mu^†(x-mu)  psi(x-mu)
//
// and the Wilson operator in the hopping-parameter convention
//
//   M = 1 - kappa * D,     kappa = 1 / (2 m0 + 8),
//
// which is gamma5-hermitian: gamma5 M gamma5 = M^†. Fermion fields use
// antiperiodic time boundary conditions, folded into a private copy of the
// gauge links so the site kernels stay branch-free.
//
// The spin-projection trick (project to 2 spin components, one SU(3)
// multiply per half-spinor, reconstruct) gives the canonical 1320
// flops/site.

#include <memory>

#include "dirac/operator.hpp"
#include "gauge/gauge_field.hpp"
#include "lattice/field.hpp"
#include "linalg/gamma.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace lqcd {

enum class TimeBoundary { Periodic, Antiperiodic };

/// Copy a gauge field, folding the fermion time boundary condition into
/// the links at the last timeslice (multiplies U_t(x, T-1) by -1 for
/// antiperiodic fermions).
template <typename T>
GaugeField<T> make_fermion_links(const GaugeField<T>& u, TimeBoundary bc) {
  GaugeField<T> v(u.geometry());
  const LatticeGeometry& geo = u.geometry();
  const std::int64_t vol = geo.volume();
  const T sign = (bc == TimeBoundary::Antiperiodic) ? T(-1) : T(1);
  for (std::int64_t s = 0; s < vol; ++s) {
    v.site(s) = u.site(s);
    if (geo.fwd_wraps(s, 3)) v(s, 3) *= sign;
  }
  return v;
}

namespace detail {

/// Accumulate the mu-direction forward+backward hopping contribution.
/// Generic over the gauge container and neighbor-table provider so the
/// same kernel instantiates over (GaugeField<T>, LatticeGeometry) for the
/// scalar path and (VectorGaugeField<T, W>, VectorLattice) for the
/// lane-packed path — u(site, mu) and geo.fwd/bwd are the only contracts.
template <int Mu, typename T, typename GaugeT, typename GeoT>
inline void accum_hop(WilsonSpinor<T>& acc, const GaugeT& u,
                      std::span<const WilsonSpinor<T>> in,
                      const GeoT& geo, std::int64_t cb) {
  // Forward: (1 - gamma_mu) U_mu(x) psi(x+mu)
  {
    const std::int64_t xp = geo.fwd(cb, Mu);
    const HalfSpinor<T> h =
        project<Mu, -1>(in[static_cast<std::size_t>(xp)]);
    HalfSpinor<T> uh;
    uh.s[0] = mul(u(cb, Mu), h.s[0]);
    uh.s[1] = mul(u(cb, Mu), h.s[1]);
    accum_reconstruct<Mu, -1>(acc, uh);
  }
  // Backward: (1 + gamma_mu) U_mu^†(x-mu) psi(x-mu)
  {
    const std::int64_t xm = geo.bwd(cb, Mu);
    const HalfSpinor<T> h =
        project<Mu, +1>(in[static_cast<std::size_t>(xm)]);
    HalfSpinor<T> uh;
    uh.s[0] = adj_mul(u(xm, Mu), h.s[0]);
    uh.s[1] = adj_mul(u(xm, Mu), h.s[1]);
    accum_reconstruct<Mu, +1>(acc, uh);
  }
}

/// Full hopping sum at one site.
template <typename T, typename GaugeT, typename GeoT>
inline WilsonSpinor<T> hop_site(const GaugeT& u,
                                std::span<const WilsonSpinor<T>> in,
                                const GeoT& geo,
                                std::int64_t cb) {
  WilsonSpinor<T> acc{};
  accum_hop<0>(acc, u, in, geo, cb);
  accum_hop<1>(acc, u, in, geo, cb);
  accum_hop<2>(acc, u, in, geo, cb);
  accum_hop<3>(acc, u, in, geo, cb);
  return acc;
}

}  // namespace detail

/// out(x) = (D in)(x) for all sites. `in` spans the full volume.
template <typename T>
void dslash_full(std::span<WilsonSpinor<T>> out,
                 std::span<const WilsonSpinor<T>> in, const GaugeField<T>& u) {
  const LatticeGeometry& geo = u.geometry();
  LQCD_REQUIRE(out.size() == static_cast<std::size_t>(geo.volume()) &&
                   in.size() == out.size(),
               "dslash_full span sizes");
  if (telemetry::enabled()) {
    static telemetry::Counter& c_applies =
        telemetry::counter("dslash.applies");
    static telemetry::Counter& c_sites =
        telemetry::counter("dslash.site_applies");
    static telemetry::Counter& c_gauge =
        telemetry::counter("dslash.gauge_site_loads");
    c_applies.add(1);
    c_sites.add(geo.volume());
    // Equal to site_applies here (the SIMD kernels book 1/W of it);
    // kept because perfbench/ reads it.
    c_gauge.add(geo.volume());
  }
  parallel_for(out.size(), [&](std::size_t s) {
    out[s] = detail::hop_site(u, in, geo, static_cast<std::int64_t>(s));
  });
}

/// Half-checkerboard hopping: fills the `target_parity` block of `out`
/// (volume-span) from the opposite-parity block of `in` (volume-span).
/// This is D_eo (target even) / D_oe (target odd).
template <typename T>
void dslash_parity(std::span<WilsonSpinor<T>> out,
                   std::span<const WilsonSpinor<T>> in,
                   const GaugeField<T>& u, int target_parity) {
  const LatticeGeometry& geo = u.geometry();
  LQCD_REQUIRE(out.size() == static_cast<std::size_t>(geo.volume()) &&
                   in.size() == out.size(),
               "dslash_parity span sizes");
  const std::int64_t hv = geo.half_volume();
  const std::int64_t base = target_parity == 0 ? 0 : hv;
  if (telemetry::enabled()) {
    static telemetry::Counter& c_applies =
        telemetry::counter("dslash.parity_applies");
    static telemetry::Counter& c_sites =
        telemetry::counter("dslash.site_applies");
    static telemetry::Counter& c_gauge =
        telemetry::counter("dslash.gauge_site_loads");
    c_applies.add(1);
    c_sites.add(hv);
    c_gauge.add(hv);
  }
  parallel_for(static_cast<std::size_t>(hv), [&](std::size_t i) {
    const std::int64_t cb = base + static_cast<std::int64_t>(i);
    out[static_cast<std::size_t>(cb)] = detail::hop_site(u, in, geo, cb);
  });
}

/// The full-lattice Wilson operator M = 1 - kappa D.
template <typename T>
class WilsonOperator final : public LinearOperator<T> {
 public:
  WilsonOperator(const GaugeField<T>& u, double kappa,
                 TimeBoundary bc = TimeBoundary::Antiperiodic)
      : links_(make_fermion_links(u, bc)),
        kappa_(static_cast<T>(kappa)),
        bc_(bc) {
    LQCD_REQUIRE(kappa > 0.0 && kappa < 0.25, "kappa out of (0, 0.25)");
  }

  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in) const override {
    dslash_full(out, in, links_);
    const T k = kappa_;
    parallel_for(out.size(), [&](std::size_t s) {
      WilsonSpinor<T> r = in[s];
      WilsonSpinor<T> h = out[s];
      h *= k;
      r -= h;
      out[s] = r;
    });
  }

  /// out = M^† in, via the gamma5 trick: M^† = g5 M g5.
  void apply_dagger(std::span<WilsonSpinor<T>> out,
                    std::span<const WilsonSpinor<T>> in,
                    std::span<WilsonSpinor<T>> tmp) const {
    parallel_for(in.size(),
                 [&](std::size_t s) { tmp[s] = apply_gamma5(in[s]); });
    apply(out, std::span<const WilsonSpinor<T>>(tmp.data(), tmp.size()));
    parallel_for(out.size(),
                 [&](std::size_t s) { out[s] = apply_gamma5(out[s]); });
  }

  [[nodiscard]] std::int64_t vector_size() const override {
    return links_.geometry().volume();
  }
  [[nodiscard]] double flops_per_apply() const override {
    // dslash + axpy-like combination (24 mul + 24 add per site).
    return static_cast<double>(vector_size()) * (kDslashFlopsPerSite + 48.0);
  }

  [[nodiscard]] double kappa() const { return static_cast<double>(kappa_); }
  [[nodiscard]] TimeBoundary boundary() const { return bc_; }
  [[nodiscard]] const GaugeField<T>& fermion_links() const { return links_; }
  [[nodiscard]] const LatticeGeometry& geometry() const {
    return links_.geometry();
  }

 private:
  GaugeField<T> links_;
  T kappa_;
  TimeBoundary bc_;
};

}  // namespace lqcd
