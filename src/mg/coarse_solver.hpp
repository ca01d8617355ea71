#pragma once
// Coarse-level solve: restarted GCR on `CoarseVector`, fully serial.
//
// The coarse system is tiny (hundreds of unknowns), so a serial Krylov
// solve costs microseconds — and seriality is load-bearing: every
// reduction happens in a fixed order, so the V-cycle's promise of
// bit-identical results across thread counts holds through the coarse
// correction. The algorithm mirrors `solver/gcr.hpp` (orthogonalize
// A p against previous A q's, minimize the residual over the span).
//
// The tolerance is deliberately loose (~1e-1): the V-cycle only needs an
// approximate coarse correction, and over-solving the coarse system buys
// nothing on the fine grid.

#include <cmath>
#include <vector>

#include "mg/coarse_op.hpp"
#include "mg/coarse_vector.hpp"

namespace lqcd::mg {

struct CoarseSolveParams {
  double tol = 1e-1;        ///< relative residual target
  int max_iterations = 64;  ///< total GCR iterations
  int restart_length = 16;  ///< directions kept before restarting
};

struct CoarseSolveResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;
};

/// Solve A_c x = b from x = 0. Serial and deterministic.
template <typename T>
CoarseSolveResult coarse_gcr_solve(const CoarseOperator<T>& a,
                                   CoarseVector<T>& x,
                                   const CoarseVector<T>& b,
                                   const CoarseSolveParams& params) {
  CoarseSolveResult res;
  const std::int64_t n = a.geometry().volume();
  cblas::zero(x);

  CoarseVector<T> r(n, a.ncols());
  cblas::copy(r, b);
  const T bnorm2 = cblas::norm2(b);
  if (bnorm2 <= T(0)) {
    res.converged = true;
    return res;
  }
  const T target2 = bnorm2 * static_cast<T>(params.tol) *
                    static_cast<T>(params.tol);

  // Direction slots, allocated on first use and reused across restarts.
  std::vector<CoarseVector<T>> p, ap;
  p.reserve(static_cast<std::size_t>(params.restart_length));
  ap.reserve(static_cast<std::size_t>(params.restart_length));

  T rnorm2 = bnorm2;
  std::size_t k = 0;  // directions in the current restart cycle
  while (res.iterations < params.max_iterations) {
    if (static_cast<int>(k) == params.restart_length) k = 0;
    if (k == p.size()) {
      p.emplace_back(n, a.ncols());
      ap.emplace_back(n, a.ncols());
    }
    CoarseVector<T>& pk = p[k];
    CoarseVector<T>& apk = ap[k];
    cblas::copy(pk, r);
    a.apply(apk, pk);
    // Orthogonalize A p against previous directions.
    for (std::size_t i = 0; i < k; ++i) {
      const Cplx<T> beta = cblas::dot(ap[i], apk);
      cblas::caxpy(-beta, ap[i], apk);
      cblas::caxpy(-beta, p[i], pk);
    }
    const T apn2 = cblas::norm2(apk);
    if (apn2 <= T(0)) break;  // breakdown: return best x so far
    const T inv = T(1) / std::sqrt(apn2);
    for (std::size_t i = 0; i < pk.size(); ++i) {
      pk[i] *= inv;
      apk[i] *= inv;
    }
    const Cplx<T> alpha = cblas::dot(apk, r);
    cblas::caxpy(alpha, pk, x);
    cblas::caxpy(-alpha, apk, r);
    ++k;
    ++res.iterations;
    rnorm2 = cblas::norm2(r);
    if (rnorm2 <= target2) {
      res.converged = true;
      break;
    }
  }
  res.relative_residual =
      std::sqrt(static_cast<double>(rnorm2) / static_cast<double>(bnorm2));
  if (rnorm2 <= target2) res.converged = true;
  return res;
}

}  // namespace lqcd::mg
