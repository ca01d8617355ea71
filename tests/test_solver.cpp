// Tests for the Krylov solvers: CG, BiCGStab, GCR, mixed-precision defect
// correction and the SAP preconditioner, plus the even-odd solve pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "dirac/clover.hpp"
#include "dirac/eo.hpp"
#include "dirac/normal.hpp"
#include "dirac/wilson.hpp"
#include "gauge/heatbath.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/gcr.hpp"
#include "solver/mixed_cg.hpp"
#include "solver/sap.hpp"
#include "util/rng.hpp"

namespace lqcd {
namespace {

const LatticeGeometry& geo4() {
  static LatticeGeometry geo({4, 4, 4, 4});
  return geo;
}

void fill_random(std::span<WilsonSpinorD> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
}

const GaugeFieldD& shared_gauge() {
  static GaugeFieldD u = [] {
    GaugeFieldD v(geo4());
    v.set_random(SiteRngFactory(900));
    Heatbath hb(v, {.beta = 5.9, .or_per_hb = 1, .seed = 901});
    for (int i = 0; i < 6; ++i) hb.sweep();
    return v;
  }();
  return u;
}

using CSpan = std::span<const WilsonSpinorD>;
CSpan cspan(const FermionFieldD& f) { return f.span(); }

double residual(const LinearOperator<double>& op, CSpan x, CSpan b) {
  FermionFieldD ax(geo4());
  std::vector<WilsonSpinorD> buf(x.size());
  op.apply(std::span<WilsonSpinorD>(buf), x);
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err += norm2(buf[i] - b[i]);
    ref += norm2(b[i]);
  }
  return std::sqrt(err / ref);
}

TEST(Cg, SolvesNormalEquations) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  NormalOperator<double> mdm(m);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1000);
  SolverParams p{.tol = 1e-10, .max_iterations = 2000};
  const SolverResult r = cg_solve<double>(mdm, x.span(), cspan(b), p);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.relative_residual, 1e-9);
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(residual(mdm, cspan(x), cspan(b)), 1e-9);
}

TEST(Cg, RejectsNonHermitianOperator) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  FermionFieldD b(geo4()), x(geo4());
  EXPECT_THROW(cg_solve<double>(m, x.span(), cspan(b), {}), Error);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  NormalOperator<double> mdm(m);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(x.span(), 1001);  // dirty initial guess
  const SolverResult r = cg_solve<double>(mdm, x.span(), cspan(b), {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(blas::norm2(cspan(x)), 0.0);
}

TEST(Cg, HonorsIterationLimit) {
  WilsonOperator<double> m(shared_gauge(), 0.124);
  NormalOperator<double> mdm(m);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1002);
  SolverParams p{.tol = 1e-14, .max_iterations = 3};
  const SolverResult r = cg_solve<double>(mdm, x.span(), cspan(b), p);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

TEST(Cg, ReportsFlopsAndTime) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  NormalOperator<double> mdm(m);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1003);
  const SolverResult r = cg_solve<double>(mdm, x.span(), cspan(b),
                                          {.tol = 1e-8});
  EXPECT_GT(r.flops, 0.0);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.gflops_per_second(), 0.0);
}

TEST(BiCgStab, SolvesWilsonSystem) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1004);
  SolverParams p{.tol = 1e-10, .max_iterations = 2000};
  const SolverResult r = bicgstab_solve<double>(m, x.span(), cspan(b), p);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual(m, cspan(x), cspan(b)), 1e-9);
}

TEST(BiCgStab, FewerIterationsThanCgOnM) {
  // BiCGStab works on M directly; CG needs M^†M whose condition number is
  // squared — so CG on the normal equations takes more operator applies.
  WilsonOperator<double> m(shared_gauge(), 0.124);
  NormalOperator<double> mdm(m);
  FermionFieldD b(geo4()), x1(geo4()), x2(geo4());
  fill_random(b.span(), 1005);
  SolverParams p{.tol = 1e-8, .max_iterations = 4000};
  const SolverResult rb = bicgstab_solve<double>(m, x1.span(), cspan(b), p);
  const SolverResult rc = cg_solve<double>(mdm, x2.span(), cspan(b), p);
  EXPECT_TRUE(rb.converged);
  EXPECT_TRUE(rc.converged);
  // Operator applies: BiCGStab 2/iter on M, CG 1/iter on M^†M (2 M each).
  EXPECT_LT(rb.iterations, rc.iterations * 2);
}

TEST(BiCgStab, ZeroRhs) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  FermionFieldD b(geo4()), x(geo4());
  const SolverResult r = bicgstab_solve<double>(m, x.span(), cspan(b), {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(blas::norm2(cspan(x)), 0.0);
}

TEST(Gcr, SolvesWithoutPreconditioner) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1006);
  GcrParams p;
  p.base.tol = 1e-9;
  p.base.max_iterations = 3000;
  p.restart_length = 16;
  const SolverResult r = gcr_solve<double>(m, x.span(), cspan(b), p);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual(m, cspan(x), cspan(b)), 1e-8);
}

TEST(Gcr, SapPreconditionedConvergesFaster) {
  WilsonOperator<double> m(shared_gauge(), 0.124);
  FermionFieldD b(geo4()), x1(geo4()), x2(geo4());
  fill_random(b.span(), 1007);
  GcrParams p;
  p.base.tol = 1e-8;
  p.base.max_iterations = 3000;
  const SolverResult plain = gcr_solve<double>(m, x1.span(), cspan(b), p);

  SapParams sp;
  sp.block = {2, 2, 2, 2};
  sp.cycles = 3;
  sp.block_mr_iterations = 4;
  SapPreconditioner<double> sap(m, sp);
  const SolverResult pre = gcr_solve<double>(m, x2.span(), cspan(b), p,
                                             &sap);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
  EXPECT_LT(residual(m, cspan(x2), cspan(b)), 1e-7);
}

TEST(Sap, BlockGeometryValidation) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  SapParams sp;
  sp.block = {3, 2, 2, 2};  // 3 does not divide 4
  EXPECT_THROW(SapPreconditioner<double>(m, sp), Error);
}

TEST(Sap, BlockCountAndApplyShape) {
  WilsonOperator<double> m(shared_gauge(), 0.12);
  SapParams sp;
  sp.block = {2, 2, 2, 2};
  SapPreconditioner<double> sap(m, sp);
  EXPECT_EQ(sap.num_blocks(), 16u);
  FermionFieldD in(geo4()), out(geo4());
  fill_random(in.span(), 1008);
  sap.apply(out.span(), cspan(in));
  // One SAP application must reduce the residual of M z = in vs z = 0.
  FermionFieldD mz(geo4());
  m.apply(mz.span(), cspan(out));
  double err = 0.0, ref = 0.0;
  for (std::int64_t s = 0; s < geo4().volume(); ++s) {
    err += norm2(mz[s] - in[s]);
    ref += norm2(in[s]);
  }
  EXPECT_LT(err / ref, 1.0);
}

/// A lattice and SAP block shape for the residual oracle.
struct SapGeometry {
  Coord dims;
  Coord block;
};

/// out = S(in) with the residual SAP hands back, on a hot gauge field.
struct SapRun {
  std::vector<WilsonSpinorD> in, out, residual, mout;
};

SapRun run_sap(const SapGeometry& g) {
  const LatticeGeometry geo(g.dims);
  GaugeFieldD u(geo);
  u.set_random(SiteRngFactory(950));
  const WilsonOperator<double> m(u, 0.12);
  SapParams sp;
  sp.block = g.block;
  sp.cycles = 2;
  sp.block_mr_iterations = 4;
  const SapPreconditioner<double> sap(m, sp);
  const auto vol = static_cast<std::size_t>(geo.volume());
  SapRun r{std::vector<WilsonSpinorD>(vol), std::vector<WilsonSpinorD>(vol),
           std::vector<WilsonSpinorD>(vol), std::vector<WilsonSpinorD>(vol)};
  fill_random(std::span<WilsonSpinorD>(r.in), 960);
  sap.apply(std::span<WilsonSpinorD>(r.out), CSpan(r.in),
            std::span<WilsonSpinorD>(r.residual));
  // Recomputed with the full operator: in - M out.
  m.apply(std::span<WilsonSpinorD>(r.mout), CSpan(r.out));
  for (std::size_t i = 0; i < vol; ++i) r.mout[i] = r.in[i] - r.mout[i];

  // Asking for the residual must not change the smoothed field.
  std::vector<WilsonSpinorD> plain(vol);
  sap.apply(std::span<WilsonSpinorD>(plain), CSpan(r.in));
  const std::size_t bytes = vol * sizeof(WilsonSpinorD);
  EXPECT_EQ(std::memcmp(plain.data(), r.out.data(), bytes), 0);
  return r;
}

/// "L8x8x8x16_b2222": lattice extents, then block extents.
std::string sap_geometry_name(
    const ::testing::TestParamInfo<SapGeometry>& info) {
  std::string name;
  for (int mu = 0; mu < Nd; ++mu)
    name += (mu ? "x" : "L") + std::to_string(info.param.dims[mu]);
  name += "_b";
  for (int mu = 0; mu < Nd; ++mu)
    name += std::to_string(info.param.block[mu]);
  return name;
}

class SapResidual : public ::testing::TestWithParam<SapGeometry> {};

TEST_P(SapResidual, EqualsInMinusMOut) {
  const SapRun r = run_sap(GetParam());
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < r.in.size(); ++i) {
    err += norm2(r.residual[i] - r.mout[i]);
    ref += norm2(r.mout[i]);
  }
  ASSERT_GT(ref, 0.0);
  EXPECT_LE(std::sqrt(err / ref), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SapResidual,
    ::testing::Values(
        // Two or more blocks per direction, even counts.
        SapGeometry{{8, 8, 8, 16}, {2, 2, 2, 2}},
        // Two blocks per direction: the forward and backward neighbour
        // blocks coincide.
        SapGeometry{{4, 4, 4, 4}, {2, 2, 2, 2}},
        // Three blocks along x: same-color blocks meet across the wrap.
        SapGeometry{{6, 4, 4, 4}, {2, 2, 2, 2}},
        // One block along x: its hops wrap inside the block.
        SapGeometry{{4, 4, 4, 4}, {4, 2, 2, 2}},
        SapGeometry{{8, 8, 8, 8}, {4, 4, 4, 4}}),
    sap_geometry_name);

TEST(Sap, ResidualBitIdenticalAcrossThreadCounts) {
  // Phase 1 runs blocks in parallel and phase 2 boundary sites in
  // parallel; neither may let the pool size into the result.
  const SapGeometry g{{6, 4, 4, 4}, {2, 2, 2, 2}};
  ThreadPool::set_global_threads(1);
  const SapRun a = run_sap(g);
  ThreadPool::set_global_threads(3);
  const SapRun b = run_sap(g);
  ThreadPool::set_global_threads(0);  // restore the default pool

  const std::size_t bytes = a.out.size() * sizeof(WilsonSpinorD);
  EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(a.residual.data(), b.residual.data(), bytes), 0);
}

TEST(MixedCg, MatchesDoubleCg) {
  const GaugeFieldD& u = shared_gauge();
  GaugeFieldF uf(geo4());
  convert_gauge(uf, u);
  WilsonOperator<double> md(u, 0.12);
  WilsonOperator<float> mf(uf, 0.12);
  NormalOperator<double> nd(md);
  NormalOperator<float> nf(mf);

  FermionFieldD b(geo4()), x_mixed(geo4()), x_double(geo4());
  fill_random(b.span(), 1009);

  MixedCgParams mp;
  mp.outer.tol = 1e-10;
  const SolverResult rm = mixed_cg_solve(nd, nf, x_mixed.span(), cspan(b),
                                         mp);
  EXPECT_TRUE(rm.converged);
  EXPECT_GT(rm.outer_cycles, 0);
  EXPECT_GT(rm.inner_iterations, 0);

  SolverParams p{.tol = 1e-10, .max_iterations = 4000};
  const SolverResult rd = cg_solve<double>(nd, x_double.span(), cspan(b), p);
  EXPECT_TRUE(rd.converged);

  double diff = 0.0, ref = 0.0;
  for (std::int64_t s = 0; s < geo4().volume(); ++s) {
    diff += norm2(x_mixed[s] - x_double[s]);
    ref += norm2(x_double[s]);
  }
  EXPECT_LT(std::sqrt(diff / ref), 1e-7);
}

TEST(MixedCg, AchievesBeyondSinglePrecision) {
  // The whole point of defect correction: final accuracy far below float
  // epsilon although all heavy lifting ran in float.
  const GaugeFieldD& u = shared_gauge();
  GaugeFieldF uf(geo4());
  convert_gauge(uf, u);
  WilsonOperator<double> md(u, 0.12);
  WilsonOperator<float> mf(uf, 0.12);
  NormalOperator<double> nd(md);
  NormalOperator<float> nf(mf);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1010);
  MixedCgParams mp;
  mp.outer.tol = 1e-12;
  const SolverResult r = mixed_cg_solve(nd, nf, x.span(), cspan(b), mp);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.relative_residual, 1e-12);
}

TEST(MixedCg, UnconvergedResidualMatchesReturnedIterate) {
  // Regression: on cycle exhaustion the reported residual was the value
  // measured at the TOP of the last cycle — stale by one accumulated
  // correction. The reported value must describe the x actually returned.
  const GaugeFieldD& u = shared_gauge();
  GaugeFieldF uf(geo4());
  convert_gauge(uf, u);
  WilsonOperator<double> md(u, 0.12);
  WilsonOperator<float> mf(uf, 0.12);
  NormalOperator<double> nd(md);
  NormalOperator<float> nf(mf);
  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1011);

  MixedCgParams mp;
  mp.outer.tol = 1e-13;      // far beyond what one cycle reaches...
  mp.max_outer_cycles = 1;   // ...and only one cycle allowed
  mp.inner_reduction = 1e-2;
  const SolverResult r = mixed_cg_solve(nd, nf, x.span(), cspan(b), mp);
  ASSERT_FALSE(r.converged);
  const double true_rel = residual(nd, cspan(x), cspan(b));
  ASSERT_GT(true_rel, 0.0);
  // Stale value would be 1.0 (residual before the only correction);
  // the fixed value agrees with the returned iterate.
  EXPECT_NEAR(r.relative_residual / true_rel, 1.0, 1e-6);
  EXPECT_LT(r.relative_residual, 0.9);
}

TEST(EvenOdd, SchurSolveMatchesFullSolve) {
  const GaugeFieldD& u = shared_gauge();
  const double kappa = 0.12;
  WilsonOperator<double> m(u, kappa);
  SchurWilsonOperator<double> shat(u, kappa);
  NormalOperator<double> nhat(shat);

  FermionFieldD b(geo4()), x_full(geo4());
  fill_random(b.span(), 1011);

  // Full-lattice reference solve via BiCGStab.
  SolverParams p{.tol = 1e-11, .max_iterations = 4000};
  const SolverResult rf = bicgstab_solve<double>(m, x_full.span(), cspan(b),
                                                 p);
  ASSERT_TRUE(rf.converged);

  // Even-odd pipeline: prepare rhs, CG on normal Schur eqs, reconstruct.
  const auto hv = static_cast<std::size_t>(geo4().half_volume());
  aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xo(hv), tmp(hv);
  shat.prepare_rhs(std::span<WilsonSpinorD>(bhat.data(), hv), cspan(b));
  // Normal equations: solve Mhat^† Mhat xo = Mhat^† bhat.
  apply_dagger_g5<double>(shat, std::span<WilsonSpinorD>(bhat2.data(), hv),
                          CSpan(bhat.data(), hv),
                          std::span<WilsonSpinorD>(tmp.data(), hv));
  const SolverResult rs = cg_solve<double>(
      nhat, std::span<WilsonSpinorD>(xo.data(), hv), CSpan(bhat2.data(), hv),
      p);
  ASSERT_TRUE(rs.converged);

  FermionFieldD x_eo(geo4());
  shat.reconstruct(x_eo.span(), CSpan(xo.data(), hv), cspan(b));

  EXPECT_LT(residual(m, cspan(x_eo), cspan(b)), 1e-8);
  double diff = 0.0, ref = 0.0;
  for (std::int64_t s = 0; s < geo4().volume(); ++s) {
    diff += norm2(x_eo[s] - x_full[s]);
    ref += norm2(x_full[s]);
  }
  EXPECT_LT(std::sqrt(diff / ref), 1e-7);
}

TEST(EvenOdd, SchurCgBeatsFullCgInOperatorApplies) {
  // The headline ablation: even-odd preconditioning cuts both the vector
  // size and the iteration count.
  const GaugeFieldD& u = shared_gauge();
  const double kappa = 0.123;
  WilsonOperator<double> m(u, kappa);
  NormalOperator<double> nm(m);
  SchurWilsonOperator<double> shat(u, kappa);
  NormalOperator<double> nhat(shat);

  FermionFieldD b(geo4()), x(geo4());
  fill_random(b.span(), 1012);
  SolverParams p{.tol = 1e-9, .max_iterations = 6000};
  const SolverResult rf = cg_solve<double>(nm, x.span(), cspan(b), p);

  const auto hv = static_cast<std::size_t>(geo4().half_volume());
  aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xo(hv), tmp(hv);
  shat.prepare_rhs(std::span<WilsonSpinorD>(bhat.data(), hv), cspan(b));
  apply_dagger_g5<double>(shat, std::span<WilsonSpinorD>(bhat2.data(), hv),
                          CSpan(bhat.data(), hv),
                          std::span<WilsonSpinorD>(tmp.data(), hv));
  const SolverResult rs = cg_solve<double>(
      nhat, std::span<WilsonSpinorD>(xo.data(), hv), CSpan(bhat2.data(), hv),
      p);
  ASSERT_TRUE(rf.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(rs.iterations, rf.iterations);
}

TEST(EvenOdd, CloverSchurSolveSatisfiesFullCloverSystem) {
  const GaugeFieldD& u = shared_gauge();
  CloverParams cp{.kappa = 0.12, .csw = 1.0};
  CloverWilsonOperator<double> m(u, u, cp);
  SchurCloverOperator<double> shat(u, u, cp);
  NormalOperator<double> nhat(shat);

  FermionFieldD b(geo4());
  fill_random(b.span(), 1013);

  const auto hv = static_cast<std::size_t>(geo4().half_volume());
  aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xo(hv), tmp(hv);
  shat.prepare_rhs(std::span<WilsonSpinorD>(bhat.data(), hv), cspan(b));
  apply_dagger_g5<double>(shat, std::span<WilsonSpinorD>(bhat2.data(), hv),
                          CSpan(bhat.data(), hv),
                          std::span<WilsonSpinorD>(tmp.data(), hv));
  SolverParams p{.tol = 1e-11, .max_iterations = 6000};
  const SolverResult rs = cg_solve<double>(
      nhat, std::span<WilsonSpinorD>(xo.data(), hv), CSpan(bhat2.data(), hv),
      p);
  ASSERT_TRUE(rs.converged);

  FermionFieldD x(geo4());
  shat.reconstruct(x.span(), CSpan(xo.data(), hv), cspan(b));
  EXPECT_LT(residual(m, cspan(x), cspan(b)), 1e-8);
}

TEST(CriticalSlowingDown, IterationsGrowTowardKappaC) {
  // The conditioning of M^†M degrades as kappa -> kappa_c: iteration
  // counts must increase monotonically over a kappa sweep.
  const GaugeFieldD& u = shared_gauge();
  FermionFieldD b(geo4());
  fill_random(b.span(), 1014);
  SolverParams p{.tol = 1e-8, .max_iterations = 8000};
  int prev_iters = 0;
  for (const double kappa : {0.100, 0.115, 0.125}) {
    SchurWilsonOperator<double> shat(u, kappa);
    NormalOperator<double> nhat(shat);
    const auto hv = static_cast<std::size_t>(geo4().half_volume());
    aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xo(hv), tmp(hv);
    shat.prepare_rhs(std::span<WilsonSpinorD>(bhat.data(), hv), cspan(b));
    apply_dagger_g5<double>(shat,
                            std::span<WilsonSpinorD>(bhat2.data(), hv),
                            CSpan(bhat.data(), hv),
                            std::span<WilsonSpinorD>(tmp.data(), hv));
    const SolverResult r = cg_solve<double>(
        nhat, std::span<WilsonSpinorD>(xo.data(), hv),
        CSpan(bhat2.data(), hv), p);
    ASSERT_TRUE(r.converged) << "kappa=" << kappa;
    EXPECT_GT(r.iterations, prev_iters) << "kappa=" << kappa;
    prev_iters = r.iterations;
  }
}

}  // namespace
}  // namespace lqcd
