#pragma once
// Restarted, flexible GCR (generalized conjugate residual) with optional
// right preconditioning — the outer solver of Lüscher's SAP-based domain
// decomposition scheme. Flexibility means the preconditioner may change
// between iterations (an inexact block solve qualifies).

#include <memory>
#include <vector>

#include "dirac/operator.hpp"
#include "linalg/blas.hpp"
#include "solver/solver.hpp"
#include "util/aligned.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace lqcd {

/// Right preconditioner interface: out ~= M^{-1} in (approximate).
template <typename T>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// Writes every element of `out`.
  virtual void apply(std::span<WilsonSpinor<T>> out,
                     std::span<const WilsonSpinor<T>> in) const = 0;
  /// Estimated flops per apply (for throughput accounting).
  [[nodiscard]] virtual double flops_per_apply() const { return 0.0; }
};

struct GcrParams {
  SolverParams base;
  int restart_length = 16;
};

template <typename T>
SolverResult gcr_solve(const LinearOperator<T>& m,
                       std::span<WilsonSpinor<T>> x,
                       std::span<const WilsonSpinor<T>> b,
                       const GcrParams& params,
                       const Preconditioner<T>* precond = nullptr) {
  const std::size_t n = b.size();
  LQCD_REQUIRE(x.size() == n, "gcr size mismatch");
  LQCD_REQUIRE(params.restart_length >= 1, "gcr restart length");

  WallTimer timer;
  SolverResult res;
  auto cspan = [](std::span<WilsonSpinor<T>> s) {
    return std::span<const WilsonSpinor<T>>(s.data(), s.size());
  };

  const double b_norm2 = blas::norm2(b);
  if (b_norm2 == 0.0) {
    blas::zero(x);
    res.converged = true;
    res.seconds = timer.seconds();
    return res;
  }
  const double target2 = params.base.tol * params.base.tol * b_norm2;

  aligned_vector<WilsonSpinor<T>> r_s(n);
  std::span<WilsonSpinor<T>> r(r_s.data(), n);

  // Direction slots z_k = K r and q_k = M z_k, orthogonalized in place:
  // each allocated on first use and reused across restarts.
  const int mlen = params.restart_length;
  std::vector<aligned_vector<WilsonSpinor<T>>> zk, qk;
  zk.reserve(static_cast<std::size_t>(mlen));
  qk.reserve(static_cast<std::size_t>(mlen));
  std::vector<double> qk_norm2(static_cast<std::size_t>(mlen), 0.0);

  // r = b - M x
  m.apply(r, cspan(x));
  parallel_for(n, [&](std::size_t i) {
    WilsonSpinor<T> w = b[i];
    w -= r[i];
    r[i] = w;
  });
  double rr = blas::norm2(cspan(r));

  const double op_flops = m.flops_per_apply();
  const double pre_flops = precond ? precond->flops_per_apply() : 0.0;

  int it = 0;
  while (it < params.base.max_iterations && rr > target2) {
    int k = 0;
    for (; k < mlen && it < params.base.max_iterations && rr > target2;
         ++k, ++it) {
      const auto slot = static_cast<std::size_t>(k);
      if (slot == zk.size()) {
        zk.emplace_back(n);
        qk.emplace_back(n);
      }
      const std::span<WilsonSpinor<T>> z(zk[slot].data(), n),
          q(qk[slot].data(), n);
      // Preconditioned direction.
      if (precond)
        precond->apply(z, cspan(r));
      else
        blas::copy(z, cspan(r));
      m.apply(q, cspan(z));
      // Orthogonalize q against previous directions (modified
      // Gram-Schmidt), updating z consistently.
      for (int j = 0; j < k; ++j) {
        std::span<const WilsonSpinor<T>> qj(qk[static_cast<std::size_t>(j)]
                                                .data(),
                                            n);
        std::span<const WilsonSpinor<T>> zj(zk[static_cast<std::size_t>(j)]
                                                .data(),
                                            n);
        const Cplxd a = blas::dot(qj, cspan(q));
        const Cplx<T> af(static_cast<T>(a.re / qk_norm2[j]),
                         static_cast<T>(a.im / qk_norm2[j]));
        blas::caxpy(Cplx<T>(-af.re, -af.im), qj, q);
        blas::caxpy(Cplx<T>(-af.re, -af.im), zj, z);
      }
      const double qq = blas::norm2(cspan(q));
      if (qq == 0.0) break;  // breakdown; restart
      const Cplxd beta_c = blas::dot(cspan(q), cspan(r));
      const Cplx<T> beta(static_cast<T>(beta_c.re / qq),
                         static_cast<T>(beta_c.im / qq));
      blas::caxpy(beta, cspan(z), x);
      blas::caxpy(Cplx<T>(-beta.re, -beta.im), cspan(q), r);
      rr = blas::norm2(cspan(r));
      qk_norm2[slot] = qq;

      res.flops += op_flops + pre_flops +
                   static_cast<double>(n) * (6.0 + 2.0 * k) * 48.0;
      if (params.base.verbose)
        log_debug("gcr iter ", it + 1, " rel ", std::sqrt(rr / b_norm2));
    }
    if (k == 0) break;  // hard breakdown
  }

  res.iterations = it;
  res.converged = rr <= target2;
  if (params.base.check_true_residual) {
    m.apply(r, cspan(x));
    parallel_for(n, [&](std::size_t i) {
      WilsonSpinor<T> w = b[i];
      w -= r[i];
      r[i] = w;
    });
    res.relative_residual = std::sqrt(blas::norm2(cspan(r)) / b_norm2);
    res.converged =
        res.converged && res.relative_residual <= 10 * params.base.tol;
  } else {
    res.relative_residual = std::sqrt(rr / b_norm2);
  }
  res.seconds = timer.seconds();
  return res;
}

}  // namespace lqcd
