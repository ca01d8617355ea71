#pragma once
// Field-level vector operations over spans of Wilson spinors — the
// "level-1 BLAS" the Krylov solvers are built from. All reductions are
// deterministic (fixed chunk combination order) so solver iteration counts
// are reproducible run to run and across thread counts with the same
// chunking.
//
// Canonical summation order. Every reduction (norm2, dot) sums
//   (1) within a site: spin-major, then color, re/im paired — exactly
//       the loop order of lqcd::norm2 / lqcd::dot on one spinor;
//   (2) across sites: ascending checkerboard site index, in the fixed
//       contiguous chunks of ThreadPool::run_chunks, partials combined
//       in thread-id order.
// This order is defined over SCALAR sites and is therefore independent
// of any SIMD lane width: the lane-packed overloads below take the
// VectorLattice gather map and walk the same ascending site order,
// extracting one lane per site, instead of folding an accumulator of
// lane-vector shape (whose combination order would change with W).
// CG and mixed-precision CG residuals are consequently bit-identical
// between the scalar and vectorized builds at any W.

#include <cstdint>
#include <span>

#include "linalg/lanes.hpp"
#include "linalg/simd.hpp"
#include "linalg/spinor.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace lqcd::blas {

template <typename T>
void zero(std::span<WilsonSpinor<T>> x) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] = WilsonSpinor<T>{}; });
}

template <typename T>
void copy(std::span<WilsonSpinor<T>> dst,
          std::span<const WilsonSpinor<T>> src) {
  LQCD_REQUIRE(dst.size() == src.size(), "blas::copy size mismatch");
  parallel_for(dst.size(), [&](std::size_t i) { dst[i] = src[i]; });
}

/// dst = src with precision conversion.
template <typename To, typename From>
void convert(std::span<WilsonSpinor<To>> dst,
             std::span<const WilsonSpinor<From>> src) {
  LQCD_REQUIRE(dst.size() == src.size(), "blas::convert size mismatch");
  parallel_for(dst.size(),
               [&](std::size_t i) { dst[i] = lqcd::convert<To>(src[i]); });
}

template <typename T>
void scale(T a, std::span<WilsonSpinor<T>> x) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] *= a; });
}

/// y += a*x (real a)
template <typename T>
void axpy(T a, std::span<const WilsonSpinor<T>> x,
          std::span<WilsonSpinor<T>> y) {
  LQCD_REQUIRE(x.size() == y.size(), "blas::axpy size mismatch");
  parallel_for(y.size(), [&](std::size_t i) {
    WilsonSpinor<T> t = x[i];
    t *= a;
    y[i] += t;
  });
}

/// y += a*x (complex a)
template <typename T>
void caxpy(Cplx<T> a, std::span<const WilsonSpinor<T>> x,
           std::span<WilsonSpinor<T>> y) {
  LQCD_REQUIRE(x.size() == y.size(), "blas::caxpy size mismatch");
  parallel_for(y.size(), [&](std::size_t i) {
    WilsonSpinor<T> t = x[i];
    t *= a;
    y[i] += t;
  });
}

/// y = x + a*y (real a) — the CG search-direction update.
template <typename T>
void xpay(std::span<const WilsonSpinor<T>> x, T a,
          std::span<WilsonSpinor<T>> y) {
  LQCD_REQUIRE(x.size() == y.size(), "blas::xpay size mismatch");
  parallel_for(y.size(), [&](std::size_t i) {
    WilsonSpinor<T> t = y[i];
    t *= a;
    t += x[i];
    y[i] = t;
  });
}

/// z = x + a*y
template <typename T>
void axpy_to(std::span<const WilsonSpinor<T>> x, T a,
             std::span<const WilsonSpinor<T>> y,
             std::span<WilsonSpinor<T>> z) {
  LQCD_REQUIRE(x.size() == y.size() && x.size() == z.size(),
               "blas::axpy_to size mismatch");
  parallel_for(z.size(), [&](std::size_t i) {
    WilsonSpinor<T> t = y[i];
    t *= a;
    t += x[i];
    z[i] = t;
  });
}

/// ||x||^2 (accumulated in double regardless of T) in the canonical
/// summation order documented at the top of this header.
template <typename T>
double norm2(std::span<const WilsonSpinor<T>> x) {
  return parallel_reduce_sum(x.size(), [&](std::size_t i) {
    return static_cast<double>(lqcd::norm2(x[i]));
  });
}

/// <x, y> = sum conj(x).y (double accumulation), canonical order.
template <typename T>
Cplxd dot(std::span<const WilsonSpinor<T>> x,
          std::span<const WilsonSpinor<T>> y) {
  LQCD_REQUIRE(x.size() == y.size(), "blas::dot size mismatch");
  ThreadPool& pool = ThreadPool::global();
  std::vector<Cplxd> partial(pool.size(), Cplxd{});
  pool.run_chunks(x.size(),
                  [&](std::size_t lo, std::size_t hi, std::size_t tid) {
                    Cplxd s{};
                    for (std::size_t i = lo; i < hi; ++i) {
                      const Cplx<T> d = lqcd::dot(x[i], y[i]);
                      s += Cplxd(static_cast<double>(d.re),
                                 static_cast<double>(d.im));
                    }
                    partial[tid] = s;
                  });
  Cplxd total{};
  for (const auto& p : partial) total += p;
  return total;
}

/// Real part of <x, y> (e.g. for CG with hermitian operators).
template <typename T>
double re_dot(std::span<const WilsonSpinor<T>> x,
              std::span<const WilsonSpinor<T>> y) {
  return dot(x, y).re;
}

// --- lane-packed reductions ------------------------------------------------
//
// Reductions over SoA vector-site fields. `gather` is
// VectorLattice::gather(): gather[site] = vector_site * W + lane for every
// scalar checkerboard site. The loops walk scalar sites in ascending cb
// index and extract one lane per site, so the summation order — and hence
// the result, bit for bit — matches the scalar overloads above for every
// lane width W. Do NOT "optimize" these into lane-vector accumulators
// folded at the end: that changes the order with W and breaks the
// cross-width reproducibility contract.

/// ||x||^2 of a lane-packed field, bit-identical to the scalar norm2.
template <typename T, int W>
double norm2(std::span<const WilsonSpinor<Simd<T, W>>> x,
             std::span<const std::int64_t> gather) {
  return parallel_reduce_sum(gather.size(), [&](std::size_t i) {
    const std::int64_t g = gather[i];
    const auto vs = static_cast<std::size_t>(g / W);
    const int lane = static_cast<int>(g % W);
    return static_cast<double>(lqcd::norm2(extract_lane(x[vs], lane)));
  });
}

/// <x, y> of lane-packed fields, bit-identical to the scalar dot.
template <typename T, int W>
Cplxd dot(std::span<const WilsonSpinor<Simd<T, W>>> x,
          std::span<const WilsonSpinor<Simd<T, W>>> y,
          std::span<const std::int64_t> gather) {
  LQCD_REQUIRE(x.size() == y.size(), "blas::dot size mismatch");
  ThreadPool& pool = ThreadPool::global();
  std::vector<Cplxd> partial(pool.size(), Cplxd{});
  pool.run_chunks(gather.size(),
                  [&](std::size_t lo, std::size_t hi, std::size_t tid) {
                    Cplxd s{};
                    for (std::size_t i = lo; i < hi; ++i) {
                      const std::int64_t g = gather[i];
                      const auto vs = static_cast<std::size_t>(g / W);
                      const int lane = static_cast<int>(g % W);
                      const Cplx<T> d = lqcd::dot(extract_lane(x[vs], lane),
                                                  extract_lane(y[vs], lane));
                      s += Cplxd(static_cast<double>(d.re),
                                 static_cast<double>(d.im));
                    }
                    partial[tid] = s;
                  });
  Cplxd total{};
  for (const auto& p : partial) total += p;
  return total;
}

template <typename T, int W>
double re_dot(std::span<const WilsonSpinor<Simd<T, W>>> x,
              std::span<const WilsonSpinor<Simd<T, W>>> y,
              std::span<const std::int64_t> gather) {
  return dot(x, y, gather).re;
}

// Mutable-span conveniences (std::span does not deduce const
// conversions through templates).
template <typename T>
double norm2(std::span<WilsonSpinor<T>> x) {
  return norm2(std::span<const WilsonSpinor<T>>(x.data(), x.size()));
}
template <typename T>
Cplxd dot(std::span<WilsonSpinor<T>> x, std::span<WilsonSpinor<T>> y) {
  return dot(std::span<const WilsonSpinor<T>>(x.data(), x.size()),
             std::span<const WilsonSpinor<T>>(y.data(), y.size()));
}
template <typename T>
double re_dot(std::span<WilsonSpinor<T>> x, std::span<WilsonSpinor<T>> y) {
  return dot(x, y).re;
}

}  // namespace lqcd::blas
