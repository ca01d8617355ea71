// Tests for the adaptive aggregation multigrid subsystem (src/mg/):
// aggregation geometry, prolongator orthonormality, the Galerkin identity
// R A P = A_c, bit-reproducibility of the V-cycle across thread counts,
// MG-GCR convergence against the eo-CG reference, setup amortization and
// the mg.* telemetry surface, and the solver factory that exposes it all.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dirac/wilson.hpp"
#include "gauge/heatbath.hpp"
#include "linalg/blas.hpp"
#include "mg/mg.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/factory.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace lqcd {
namespace {

const LatticeGeometry& geo4() {
  static LatticeGeometry geo({4, 4, 4, 4});
  return geo;
}

const GaugeFieldD& shared_gauge() {
  static GaugeFieldD u = [] {
    GaugeFieldD v(geo4());
    v.set_random(SiteRngFactory(2100));
    Heatbath hb(v, {.beta = 5.9, .or_per_hb = 1, .seed = 2101});
    for (int i = 0; i < 6; ++i) hb.sweep();
    return v;
  }();
  return u;
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

/// Small MG configuration for the 4^4 test lattice (coarse grid 2^4).
mg::MgParams test_params() {
  mg::MgParams p;
  p.block = {2, 2, 2, 2};
  p.nvec = 4;
  p.setup_iters = 2;
  p.smoother = {{2, 2, 2, 2}, 2, 4};
  return p;
}

double fine_residual(const WilsonOperator<double>& m,
                     std::span<const WilsonSpinorD> x,
                     std::span<const WilsonSpinorD> b) {
  std::vector<WilsonSpinorD> mx(x.size());
  m.apply(std::span<WilsonSpinorD>(mx), x);
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err += norm2(mx[i] - b[i]);
    ref += norm2(b[i]);
  }
  return std::sqrt(err / ref);
}

TEST(Aggregation, PartitionsTheFineLattice) {
  const mg::Aggregation agg(geo4(), {2, 2, 2, 2});
  EXPECT_EQ(agg.coarse().volume(), 16);
  EXPECT_EQ(agg.aggregate_size(), 16);
  std::vector<int> seen(static_cast<std::size_t>(geo4().volume()), 0);
  for (std::int64_t xc = 0; xc < agg.coarse().volume(); ++xc) {
    const auto& sites = agg.sites(xc);
    EXPECT_EQ(static_cast<std::int64_t>(sites.size()), agg.aggregate_size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i > 0) EXPECT_LT(sites[i - 1], sites[i]);  // fixed ascending order
      EXPECT_EQ(agg.coarse_of(sites[i]), xc);
      ++seen[static_cast<std::size_t>(sites[i])];
    }
  }
  for (const int n : seen) EXPECT_EQ(n, 1);  // exact partition
}

TEST(Aggregation, RejectsOddCoarseExtent) {
  // 4/4 = 1: coarse extent below the checkerboarding minimum.
  EXPECT_THROW(mg::Aggregation(geo4(), {4, 2, 2, 2}), Error);
  // 3 does not divide 4.
  EXPECT_THROW(mg::Aggregation(geo4(), {3, 2, 2, 2}), Error);
}

TEST(Prolongator, ColumnsOrthonormalPerAggregateAndChirality) {
  const WilsonOperator<double> m(shared_gauge(), 0.12);
  const mg::MgParams p = test_params();
  const SapPreconditioner<double> smoother(m, p.smoother);
  const mg::MgHierarchy<double> h = mg_setup(m, smoother, p);
  const mg::Aggregation& agg = *h.aggregation;
  const mg::Prolongator<double>& pr = *h.prolongator;

  for (std::int64_t xc = 0; xc < agg.coarse().volume(); ++xc) {
    for (int chi = 0; chi < 2; ++chi) {
      const int sp0 = mg::chirality_spin(chi);
      for (int j = 0; j < pr.nvec(); ++j) {
        for (int k = 0; k <= j; ++k) {
          Cplxd g{};
          for (const std::int64_t s : agg.sites(xc))
            for (int d = 0; d < 2; ++d)
              g += dot(pr.vec(k)[static_cast<std::size_t>(s)].s[sp0 + d],
                       pr.vec(j)[static_cast<std::size_t>(s)].s[sp0 + d]);
          const double expect = (j == k) ? 1.0 : 0.0;
          EXPECT_NEAR(g.re, expect, 1e-12);
          EXPECT_NEAR(g.im, 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Prolongator, RestrictIsAdjointOfProlong) {
  // <R psi, c> == <psi, P c> for random fine psi and coarse c.
  const WilsonOperator<double> m(shared_gauge(), 0.12);
  const mg::MgParams p = test_params();
  const SapPreconditioner<double> smoother(m, p.smoother);
  const mg::MgHierarchy<double> h = mg_setup(m, smoother, p);
  const auto vol = static_cast<std::size_t>(geo4().volume());

  FermionFieldD psi(geo4());
  fill_random(psi.span(), 2200);
  mg::CoarseVector<double> c(h.aggregation->coarse().volume(),
                             h.prolongator->ncols());
  SiteRngFactory rngs(2201);
  for (std::size_t i = 0; i < c.size(); ++i) {
    CounterRng rng = rngs.make(i);
    c[i] = Cplxd(rng.gaussian(), rng.gaussian());
  }

  mg::CoarseVector<double> rpsi(c.nsites(), c.ncols());
  h.prolongator->restrict_to(rpsi, psi.span());
  Cplxd lhs = mg::cblas::dot(rpsi, c);

  std::vector<WilsonSpinorD> pc(vol, WilsonSpinorD{});
  h.prolongator->prolong_add(std::span<WilsonSpinorD>(pc), c);
  Cplxd rhs{};
  for (std::size_t i = 0; i < vol; ++i) rhs += dot(psi.span()[i], pc[i]);

  EXPECT_NEAR(lhs.re, rhs.re, 1e-9 * std::abs(rhs.re) + 1e-10);
  EXPECT_NEAR(lhs.im, rhs.im, 1e-9 * std::abs(rhs.re) + 1e-10);
}

TEST(CoarseOperator, GalerkinIdentity) {
  // The assembled stencil must satisfy A_c v == R (M (P v)) exactly (up
  // to roundoff) for arbitrary coarse vectors: the link-by-link assembly
  // and the operator-composition definition are the same matrix.
  const WilsonOperator<double> m(shared_gauge(), 0.124);
  const mg::MgParams p = test_params();
  const SapPreconditioner<double> smoother(m, p.smoother);
  const mg::MgHierarchy<double> h = mg_setup(m, smoother, p);
  const auto vol = static_cast<std::size_t>(geo4().volume());

  mg::CoarseVector<double> v(h.aggregation->coarse().volume(),
                             h.prolongator->ncols());
  SiteRngFactory rngs(2300);
  for (std::size_t i = 0; i < v.size(); ++i) {
    CounterRng rng = rngs.make(i);
    v[i] = Cplxd(rng.gaussian(), rng.gaussian());
  }

  // Composition path: R M P v.
  std::vector<WilsonSpinorD> pv(vol, WilsonSpinorD{}), mpv(vol);
  h.prolongator->prolong_add(std::span<WilsonSpinorD>(pv), v);
  m.apply(std::span<WilsonSpinorD>(mpv),
          std::span<const WilsonSpinorD>(pv.data(), vol));
  mg::CoarseVector<double> rmp(v.nsites(), v.ncols());
  h.prolongator->restrict_to(rmp,
                             std::span<const WilsonSpinorD>(mpv.data(), vol));

  // Stencil path: A_c v.
  mg::CoarseVector<double> acv(v.nsites(), v.ncols());
  h.coarse->apply(acv, v);

  const double ref = std::sqrt(mg::cblas::norm2(rmp));
  double err = 0.0;
  for (std::size_t i = 0; i < acv.size(); ++i)
    err += norm2(acv[i] - rmp[i]);
  EXPECT_LT(std::sqrt(err) / ref, 1e-12);
}

TEST(CoarseSolver, RestartsReuseDirectionSlots) {
  // A restart length far below the iteration count makes every cycle
  // reuse the direction slots of the one before; the reported residual
  // must still describe the returned solution.
  const WilsonOperator<double> m(shared_gauge(), 0.124);
  const mg::MgParams p = test_params();
  const SapPreconditioner<double> smoother(m, p.smoother);
  const mg::MgHierarchy<double> h = mg_setup(m, smoother, p);
  const mg::CoarseOperator<double>& a = *h.coarse;

  mg::CoarseVector<double> b(a.geometry().volume(), a.ncols());
  SiteRngFactory rngs(2450);
  for (std::size_t i = 0; i < b.size(); ++i) {
    CounterRng rng = rngs.make(i);
    b[i] = Cplxd(rng.gaussian(), rng.gaussian());
  }
  mg::CoarseVector<double> x(b.nsites(), b.ncols()), ax(b.nsites(), b.ncols());
  mg::CoarseSolveParams params;
  params.tol = 1e-8;
  params.max_iterations = 400;
  params.restart_length = 3;
  const mg::CoarseSolveResult r = mg::coarse_gcr_solve(a, x, b, params);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 3);

  a.apply(ax, x);
  double err = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) err += norm2(b[i] - ax[i]);
  const double true_rel = std::sqrt(err / mg::cblas::norm2(b));
  EXPECT_LE(true_rel, 1e-8);
  EXPECT_NEAR(true_rel / r.relative_residual, 1.0, 1e-4);
}

TEST(CoarseOperator, FloatStorageHalvesFootprintAndTracksApply) {
  // compress_store() demotes the stencil to float (second rung of the
  // precision ladder): half the footprint, idempotent, and apply() — which
  // keeps accumulating in double — must track the double-stored result at
  // the float-entry level.
  const WilsonOperator<double> m(shared_gauge(), 0.124);
  const mg::MgParams p = test_params();
  const SapPreconditioner<double> smoother(m, p.smoother);
  mg::MgHierarchy<double> h = mg_setup(m, smoother, p);

  mg::CoarseVector<double> v(h.aggregation->coarse().volume(),
                             h.prolongator->ncols());
  SiteRngFactory rngs(2350);
  for (std::size_t i = 0; i < v.size(); ++i) {
    CounterRng rng = rngs.make(i);
    v[i] = Cplxd(rng.gaussian(), rng.gaussian());
  }
  mg::CoarseVector<double> a(v.nsites(), v.ncols());
  h.coarse->apply(a, v);

  ASSERT_FALSE(h.coarse->single_storage());
  const std::size_t bytes_dbl = h.coarse->stencil_bytes();
  h.coarse->compress_store();
  EXPECT_TRUE(h.coarse->single_storage());
  EXPECT_EQ(h.coarse->stencil_bytes() * 2, bytes_dbl);
  h.coarse->compress_store();  // idempotent
  EXPECT_EQ(h.coarse->stencil_bytes() * 2, bytes_dbl);

  mg::CoarseVector<double> b(v.nsites(), v.ncols());
  h.coarse->apply(b, v);
  const double ref = std::sqrt(mg::cblas::norm2(a));
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) err += norm2(a[i] - b[i]);
  EXPECT_LT(std::sqrt(err) / ref, 1e-6);
}

TEST(MgSolver, FloatCoarseStorageKeepsConvergence) {
  // The gate behind MgParams::coarse_store_single: demoting the coarse
  // stencil must not move MG-GCR convergence.
  FermionFieldD rhs(geo4());
  fill_random(rhs.span(), 2550);
  const GcrParams gp{{.tol = 1e-9, .max_iterations = 200}, 16};

  mg::MgSolver<double> dbl(shared_gauge(), 0.124,
                           TimeBoundary::Antiperiodic, test_params(), gp);
  FermionFieldD x(geo4());
  blas::zero(x.span());
  const SolverResult r_dbl = dbl.solve(x.span(), rhs.span());

  mg::MgParams sp = test_params();
  sp.coarse_store_single = true;
  mg::MgSolver<double> sgl(shared_gauge(), 0.124,
                           TimeBoundary::Antiperiodic, sp, gp);
  blas::zero(x.span());
  const SolverResult r_sgl = sgl.solve(x.span(), rhs.span());

  ASSERT_TRUE(r_dbl.converged);
  ASSERT_TRUE(r_sgl.converged);
  EXPECT_LE(std::abs(r_sgl.iterations - r_dbl.iterations),
            std::max(1, r_dbl.iterations / 50));
  EXPECT_TRUE(sgl.preconditioner().hierarchy().coarse->single_storage());
  EXPECT_EQ(
      sgl.preconditioner().hierarchy().coarse->stencil_bytes() * 2,
      dbl.preconditioner().hierarchy().coarse->stencil_bytes());
}

TEST(Vcycle, BitIdenticalAcrossThreadCounts) {
  // The whole stack — setup RNG, relaxation, orthonormalization, Galerkin
  // assembly, V-cycle — promises bit-identical results for any pool size.
  FermionFieldD in(geo4());
  fill_random(in.span(), 2400);
  const auto vol = static_cast<std::size_t>(geo4().volume());

  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    const WilsonOperator<double> m(shared_gauge(), 0.124);
    const mg::MgPreconditioner<double> v(m, test_params());
    std::vector<WilsonSpinorD> out(vol);
    v.apply(std::span<WilsonSpinorD>(out), in.span());
    return out;
  };
  const std::vector<WilsonSpinorD> a = run(1);
  const std::vector<WilsonSpinorD> b = run(3);
  ThreadPool::set_global_threads(0);  // restore the default pool

  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(WilsonSpinorD)),
            0);
}

TEST(MgSolver, ConvergesAtLightMassAndMatchesEoCg) {
  const double kappa = 0.124;  // light mass: the regime MG exists for
  FermionFieldD b(geo4());
  fill_random(b.span(), 2500);

  mg::MgSolver<double> solver(shared_gauge(), kappa,
                              TimeBoundary::Antiperiodic, test_params(),
                              {{.tol = 1e-9, .max_iterations = 200}, 16});
  FermionFieldD x(geo4());
  blas::zero(x.span());
  const SolverResult r = solver.solve(x.span(), b.span());
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.relative_residual, 1e-9);
  EXPECT_LT(fine_residual(solver.op(), x.span(), b.span()), 1e-8);

  // Cross-check against the seed's eo-CG pipeline: same system, same
  // solution up to the tolerances.
  SolverConfig cfg;
  cfg.kappa = kappa;
  cfg.base = {.tol = 1e-9, .max_iterations = 20000};
  const auto ref = make_solver(shared_gauge(), SolverKind::EoCg, cfg);
  FermionFieldD y(geo4());
  blas::zero(y.span());
  ASSERT_TRUE(ref->solve(y.span(), b.span()).converged);
  double diff = 0.0, ref2 = 0.0;
  for (std::size_t i = 0; i < x.span().size(); ++i) {
    diff += norm2(x.span()[i] - y.span()[i]);
    ref2 += norm2(y.span()[i]);
  }
  EXPECT_LT(std::sqrt(diff / ref2), 1e-6);
}

TEST(MgSolver, AmortizesSetupAcrossSolves) {
  telemetry::set_enabled(true);
  telemetry::reset();
  mg::MgSolver<double> solver(shared_gauge(), 0.12,
                              TimeBoundary::Antiperiodic, test_params(),
                              {{.tol = 1e-8, .max_iterations = 100}, 16});
  EXPECT_EQ(telemetry::counter("mg.setup.vectors").value(),
            test_params().nvec);
  EXPECT_EQ(telemetry::counter("mg.setup.reuses").value(), 0);

  FermionFieldD b(geo4()), x(geo4());
  for (int s = 0; s < 3; ++s) {
    fill_random(b.span(), 2600 + static_cast<std::uint64_t>(s));
    blas::zero(x.span());
    EXPECT_TRUE(solver.solve(x.span(), b.span()).converged);
  }
  // Setup ran once; solves 2 and 3 reused it.
  EXPECT_EQ(telemetry::counter("mg.setup.vectors").value(),
            test_params().nvec);
  EXPECT_EQ(telemetry::counter("mg.setup.reuses").value(), 2);
  EXPECT_EQ(solver.solves(), 3);

  // The mg.* surface must show up in the JSON report.
  const std::string json = telemetry::report_json(false);
  for (const char* key :
       {"mg.setup.vectors", "mg.setup.relax_applies", "mg.setup.reuses",
        "mg.vcycle.count", "mg.fine.applies", "mg.coarse.applies",
        "mg.coarse.solve_iterations", "solver.mg_gcr.solves"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_GT(telemetry::counter("mg.vcycle.count").value(), 0);
  EXPECT_GT(telemetry::counter("mg.coarse.applies").value(), 0);
  telemetry::reset();
}

TEST(Factory, ParsesSolverNames) {
  EXPECT_EQ(parse_solver_kind("eo_cg"), SolverKind::EoCg);
  EXPECT_EQ(parse_solver_kind("cg"), SolverKind::EoCg);
  EXPECT_EQ(parse_solver_kind("mixed_cg"), SolverKind::MixedCg);
  EXPECT_EQ(parse_solver_kind("bicgstab"), SolverKind::BiCgStab);
  EXPECT_EQ(parse_solver_kind("gcr"), SolverKind::Gcr);
  EXPECT_EQ(parse_solver_kind("sap"), SolverKind::SapGcr);
  EXPECT_EQ(parse_solver_kind("mg"), SolverKind::Mg);
  EXPECT_THROW(parse_solver_kind("amg"), Error);
  for (const SolverKind k :
       {SolverKind::EoCg, SolverKind::MixedCg, SolverKind::BiCgStab,
        SolverKind::Gcr, SolverKind::SapGcr, SolverKind::Mg})
    EXPECT_EQ(parse_solver_kind(to_string(k)), k);
}

TEST(Factory, AllKindsSolveTheSameSystem) {
  FermionFieldD b(geo4());
  fill_random(b.span(), 2700);
  SolverConfig cfg;
  cfg.kappa = 0.12;
  cfg.base = {.tol = 1e-8, .max_iterations = 20000};
  cfg.sap = {{2, 2, 2, 2}, 2, 4};
  cfg.mg = test_params();
  const WilsonOperator<double> m(shared_gauge(), cfg.kappa);

  for (const SolverKind k :
       {SolverKind::EoCg, SolverKind::MixedCg, SolverKind::BiCgStab,
        SolverKind::Gcr, SolverKind::SapGcr, SolverKind::Mg}) {
    const auto solver = make_solver(shared_gauge(), k, cfg);
    EXPECT_EQ(solver->name(), to_string(k));
    FermionFieldD x(geo4());
    blas::zero(x.span());
    const SolverResult r = solver->solve(x.span(), b.span());
    EXPECT_TRUE(r.converged) << to_string(k);
    EXPECT_LT(fine_residual(m, x.span(), b.span()), 1e-7) << to_string(k);
  }
}

TEST(Factory, RejectsCloverForWilsonOnlyKinds) {
  SolverConfig cfg;
  cfg.csw = 1.0;
  for (const SolverKind k :
       {SolverKind::MixedCg, SolverKind::SapGcr, SolverKind::Mg})
    EXPECT_THROW(make_solver(shared_gauge(), k, cfg), Error);
}

}  // namespace
}  // namespace lqcd
