#pragma once
// Two-level multigrid V-cycle behind the `Preconditioner<T>` interface,
// so it drops straight into flexible GCR as a right preconditioner.
//
// One apply:   out  = S(in),  r = in - M out         (pre-smooth, SAP)
//              e_c  = A_c^{-1} R r   (approx.)       (coarse GCR)
//              out += P e_c                          (coarse correction)
//              r    = in - M out                     (fine residual)
//              out += S(r)                           (post-smooth)
//
// The pre-smoother hands back its block-locally updated residual, so the
// one fine M apply per cycle is the refresh before post-smoothing.
//
// The smoother wipes the high end of the spectrum, the coarse correction
// the low end — which is why the outer iteration count stays flat as
// kappa approaches kappa_c while plain Krylov methods slow down
// critically (the mass-sweep claim bench_mg measures).
//
// Every stage is bit-reproducible across thread counts: SAP, the
// elementwise residual updates, restrict/prolong (per-site serial inner
// loops) and the serial coarse GCR.

#include <span>

#include "mg/setup.hpp"
#include "solver/gcr.hpp"

namespace lqcd::mg {

template <typename T>
class MgPreconditioner final : public Preconditioner<T> {
 public:
  /// Runs the adaptive setup in the constructor. `m` must outlive the
  /// preconditioner.
  MgPreconditioner(const WilsonOperator<T>& m, const MgParams& params)
      : m_(&m),
        params_(params),
        smoother_(m, params.smoother),
        hierarchy_(mg_setup(m, smoother_, params)) {}

  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in) const override {
    telemetry::TraceRegion span("mg.vcycle");
    const std::size_t n = in.size();
    LQCD_REQUIRE(out.size() == n &&
                     n == static_cast<std::size_t>(m_->geometry().volume()),
                 "MG v-cycle span sizes");
    if (telemetry::enabled()) {
      static telemetry::Counter& c_cycles =
          telemetry::counter("mg.vcycle.count");
      static telemetry::Counter& c_fine =
          telemetry::counter("mg.fine.applies");
      c_cycles.add(1);
      c_fine.add(1);  // the residual refresh before post-smoothing
    }
    ensure_workspace(n);
    const std::span<WilsonSpinor<T>> r(r_.data(), n), z(z_.data(), n);

    // Pre-smooth from zero: out = S(in), r = in - M out.
    smoother_.apply(out, in, r);

    // Coarse correction on the smoothed residual.
    hierarchy_.prolongator->restrict_to(rc_,
                                        std::span<const WilsonSpinor<T>>(
                                            r.data(), n));
    const CoarseSolveResult cres =
        coarse_gcr_solve(*hierarchy_.coarse, xc_, rc_, params_.coarse);
    if (telemetry::enabled()) {
      static telemetry::Counter& c_iters =
          telemetry::counter("mg.coarse.solve_iterations");
      c_iters.add(cres.iterations);
    }
    hierarchy_.prolongator->prolong_add(out, xc_);

    // Post-smooth the corrected residual (z holds M out until S(r)).
    m_->apply(z, std::span<const WilsonSpinor<T>>(out.data(), n));
    parallel_for(n, [&](std::size_t i) {
      WilsonSpinor<T> w = in[i];
      w -= z[i];
      r[i] = w;
    });
    smoother_.apply(z, std::span<const WilsonSpinor<T>>(r.data(), n));
    parallel_for(n, [&](std::size_t i) { out[i] += z[i]; });
  }

  [[nodiscard]] double flops_per_apply() const override {
    // Two smoother applies (the first also updates its residual) + one
    // residual refresh + transfer ops + the coarse solve at its iteration
    // cap (an upper bound; the coarse grid is so small the bound is noise
    // at fine-grid scale).
    const double transfers = 2.0 * 8.0 *
                             static_cast<double>(m_->geometry().volume()) *
                             hierarchy_.prolongator->ncols() * 6.0;
    return smoother_.flops_per_apply(true) + smoother_.flops_per_apply() +
           m_->flops_per_apply() + transfers +
           static_cast<double>(params_.coarse.max_iterations) *
               hierarchy_.coarse->flops_per_apply();
  }

  [[nodiscard]] const MgParams& params() const noexcept { return params_; }
  [[nodiscard]] const MgHierarchy<T>& hierarchy() const noexcept {
    return hierarchy_;
  }
  [[nodiscard]] const SapPreconditioner<T>& smoother() const noexcept {
    return smoother_;
  }

 private:
  void ensure_workspace(std::size_t n) const {
    if (r_.size() != n) {
      r_.resize(n);
      z_.resize(n);
    }
    const std::int64_t nc = hierarchy_.aggregation->coarse().volume();
    const int ncols = hierarchy_.prolongator->ncols();
    if (rc_.nsites() != nc || rc_.ncols() != ncols) {
      rc_ = CoarseVector<T>(nc, ncols);
      xc_ = CoarseVector<T>(nc, ncols);
    }
  }

  const WilsonOperator<T>* m_;
  MgParams params_;
  SapPreconditioner<T> smoother_;
  MgHierarchy<T> hierarchy_;
  mutable aligned_vector<WilsonSpinor<T>> r_, z_;
  mutable CoarseVector<T> rc_, xc_;
};

}  // namespace lqcd::mg
