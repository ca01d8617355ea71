// Tests for the split-phase (begin/finish) halo exchange and the
// comm/compute-overlapped distributed operators: interior/surface
// partition integrity, misuse guards, bit-identity of the overlapped
// schedule against the blocking one across thread counts and process
// grids (including under fault injection, where a corrupted face must
// retransmit correctly even though its unpack is deferred to
// exchange_finish), and the distributed even-odd/Schur path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "comm/dist_eo.hpp"
#include "comm/halo.hpp"
#include "comm/process_grid.hpp"
#include "dirac/eo.hpp"
#include "dirac/normal.hpp"
#include "gauge/heatbath.hpp"
#include "linalg/blas.hpp"
#include "solver/cg.hpp"

namespace lqcd {
namespace {

const LatticeGeometry& geo8() {
  static LatticeGeometry geo({8, 4, 4, 8});
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

GaugeFieldD thermal8(std::uint64_t seed) {
  GaugeFieldD u(geo8());
  u.set_random(SiteRngFactory(seed));
  Heatbath hb(u, {.beta = 5.9, .or_per_hb = 1, .seed = seed + 1});
  for (int i = 0; i < 3; ++i) hb.sweep();
  return u;
}

double span_diff2(std::span<const WilsonSpinorD> a,
                  std::span<const WilsonSpinorD> b) {
  double diff = 0.0;
  for (std::size_t s = 0; s < a.size(); ++s) diff += norm2(a[s] - b[s]);
  return diff;
}

// --- interior/surface partition ----------------------------------------

TEST(HaloPartition, CoversLocalVolumeDisjointly) {
  const HaloLattice h({4, 4, 2, 6});
  EXPECT_EQ(static_cast<std::int64_t>(h.interior_sites().size() +
                                      h.surface_sites().size()),
            h.interior_volume());
  std::set<std::int64_t> seen;
  for (const std::int64_t i : h.interior_sites()) seen.insert(i);
  for (const std::int64_t i : h.surface_sites()) seen.insert(i);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), h.interior_volume());
  // Interior sites sit >= 1 from every face; surface sites touch one.
  for (const std::int64_t i : h.interior_sites()) {
    const Coord x = h.interior_coords(i);
    for (int mu = 0; mu < Nd; ++mu) {
      EXPECT_GT(x[mu], 0);
      EXPECT_LT(x[mu], h.local_dims()[mu] - 1);
    }
  }
  for (const std::int64_t i : h.surface_sites()) {
    const Coord x = h.interior_coords(i);
    bool on_face = false;
    for (int mu = 0; mu < Nd; ++mu)
      on_face = on_face || x[mu] == 0 || x[mu] == h.local_dims()[mu] - 1;
    EXPECT_TRUE(on_face);
  }
}

TEST(HaloPartition, ParitySplitIsConsistent) {
  const HaloLattice h({4, 6, 4, 4});
  for (int par = 0; par < 2; ++par) {
    for (const std::int64_t i : h.interior_sites(par)) {
      const Coord x = h.interior_coords(i);
      EXPECT_EQ((x[0] + x[1] + x[2] + x[3]) & 1, par);
    }
    for (const std::int64_t i : h.surface_sites(par)) {
      const Coord x = h.interior_coords(i);
      EXPECT_EQ((x[0] + x[1] + x[2] + x[3]) & 1, par);
    }
  }
  EXPECT_EQ(h.interior_sites(0).size() + h.interior_sites(1).size(),
            h.interior_sites().size());
  EXPECT_EQ(h.surface_sites(0).size() + h.surface_sites(1).size(),
            h.surface_sites().size());
}

TEST(HaloPartition, ThinExtentHasEmptyInterior) {
  // With any local extent == 2 every site touches a face: the overlap
  // window is empty and the whole sweep runs after exchange_finish.
  const HaloLattice h({2, 4, 4, 4});
  EXPECT_TRUE(h.interior_sites().empty());
  EXPECT_EQ(static_cast<std::int64_t>(h.surface_sites().size()),
            h.interior_volume());
}

// --- split-phase exchange ----------------------------------------------

TEST(SplitExchange, MisuseGuardsThrow) {
  VirtualCluster<double> vc(geo8(), ProcessGrid({2, 1, 1, 2}));
  auto f = vc.make_fermion();
  auto g = vc.make_fermion();
  EXPECT_THROW(vc.exchange_finish(f), Error);  // finish without begin
  EXPECT_FALSE(vc.exchange_in_flight());
  vc.exchange_begin(f);
  EXPECT_TRUE(vc.exchange_in_flight());
  EXPECT_THROW(vc.exchange_begin(f), Error);    // double begin
  EXPECT_THROW(vc.exchange(f), Error);          // blocking while in flight
  EXPECT_THROW(vc.exchange_finish(g), Error);   // wrong field
  EXPECT_TRUE(vc.exchange_in_flight());         // guards don't cancel it
  vc.exchange_finish(f);                        // matching finish is fine
  EXPECT_FALSE(vc.exchange_in_flight());
  EXPECT_EQ(vc.stats().exchanges, 1);
}

TEST(SplitExchange, MatchesBlockingExchange) {
  FermionFieldD f(geo8());
  fill_random(f.span(), 991);
  const ProcessGrid pg({2, 1, 1, 2});
  VirtualCluster<double> a(geo8(), pg);
  VirtualCluster<double> b(geo8(), pg);
  auto ra = a.make_fermion();
  auto rb = b.make_fermion();
  a.scatter(ra, f.span());
  b.scatter(rb, f.span());
  a.exchange(ra);
  b.exchange_begin(rb);
  b.exchange_finish(rb);
  for (int r = 0; r < a.ranks(); ++r) {
    const auto& va = ra[static_cast<std::size_t>(r)];
    const auto& vb = rb[static_cast<std::size_t>(r)];
    double diff = 0.0;
    for (std::size_t i = 0; i < va.size(); ++i) diff += norm2(va[i] - vb[i]);
    ASSERT_EQ(diff, 0.0) << "rank " << r;
  }
  EXPECT_EQ(a.stats().messages, b.stats().messages);
  EXPECT_EQ(a.stats().bytes, b.stats().bytes);
  EXPECT_EQ(a.stats().exchanges, b.stats().exchanges);
}

// --- overlapped dslash bit-identity ------------------------------------

class OverlapGrid : public ::testing::TestWithParam<Coord> {};

TEST_P(OverlapGrid, OverlappedMatchesBlockingAcrossThreadCounts) {
  const GaugeFieldD u = thermal8(310);
  const double kappa = 0.12;
  FermionFieldD in(geo8()), blocking(geo8()), overlapped(geo8());
  fill_random(in.span(), 311);

  DistributedWilsonOperator<double> dist(u, kappa, ProcessGrid(GetParam()));
  dist.set_overlap(false);
  dist.apply(blocking.span(), in.span());

  for (const int threads : {1, 2, 8}) {
    ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
    dist.set_overlap(true);
    dist.apply(overlapped.span(), in.span());
    EXPECT_EQ(span_diff2(blocking.span(), overlapped.span()), 0.0)
        << "threads " << threads;
    dist.set_overlap(false);
    dist.apply(overlapped.span(), in.span());
    EXPECT_EQ(span_diff2(blocking.span(), overlapped.span()), 0.0)
        << "blocking, threads " << threads;
  }
  ThreadPool::set_global_threads(0);
  // Interior + surface cover each rank's volume once per overlapped apply.
  const OverlapStats& ov = dist.overlap_stats();
  EXPECT_EQ(ov.interior_sites + ov.surface_sites,
            ov.applies * geo8().volume());
}

INSTANTIATE_TEST_SUITE_P(Grids, OverlapGrid,
                         ::testing::Values(Coord{1, 1, 1, 1},
                                           Coord{2, 1, 1, 1},
                                           Coord{2, 1, 1, 2},
                                           Coord{2, 2, 1, 2},
                                           Coord{2, 2, 2, 2},
                                           Coord{4, 1, 1, 4}));

TEST(OverlapFault, CorruptedFaceRetransmitsWithDeferredUnpack) {
  // A tampered payload is only detected in exchange_finish, after the
  // interior compute has run. The retransmit repacks from the (still
  // pristine) boundary planes, so the overlapped apply must match a
  // fault-free one bit for bit.
  const GaugeFieldD u = thermal8(320);
  const double kappa = 0.12;
  FermionFieldD in(geo8()), clean(geo8()), faulty(geo8());
  fill_random(in.span(), 321);

  DistributedWilsonOperator<double> dist(u, kappa, ProcessGrid({2, 1, 1, 2}));
  dist.apply(clean.span(), in.span());

  FaultInjector fi(4242, {.corrupt_prob = 1.0});
  fi.set_event_budget(6);
  dist.cluster().set_resilience({.checksum = true, .max_retries = 8});
  dist.cluster().set_fault_injector(&fi);
  dist.apply(faulty.span(), in.span());
  dist.cluster().set_fault_injector(nullptr);

  EXPECT_EQ(span_diff2(clean.span(), faulty.span()), 0.0);
  EXPECT_EQ(dist.cluster().stats().crc_failures, 6);
  EXPECT_EQ(dist.cluster().stats().retransmits, 6);
  EXPECT_EQ(fi.stats().corruptions.load(), 6);
}

TEST(OverlapFault, DroppedFaceRetransmitsWithDeferredUnpack) {
  const GaugeFieldD u = thermal8(330);
  const double kappa = 0.12;
  FermionFieldD in(geo8()), clean(geo8()), faulty(geo8());
  fill_random(in.span(), 331);

  DistributedWilsonOperator<double> dist(u, kappa, ProcessGrid({2, 1, 1, 2}));
  dist.apply(clean.span(), in.span());

  FaultInjector fi(9000, {.drop_prob = 1.0});
  fi.set_event_budget(4);
  dist.cluster().set_resilience({.checksum = true, .max_retries = 8});
  dist.cluster().set_fault_injector(&fi);
  dist.apply(faulty.span(), in.span());
  dist.cluster().set_fault_injector(nullptr);

  EXPECT_EQ(span_diff2(clean.span(), faulty.span()), 0.0);
  EXPECT_EQ(dist.cluster().stats().timeouts, 4);
  EXPECT_EQ(dist.cluster().stats().retransmits, 4);
}

TEST(OverlapFault, RankDeathInBeginLeavesClusterReusable) {
  const GaugeFieldD u = thermal8(340);
  FermionFieldD in(geo8()), out(geo8());
  fill_random(in.span(), 341);
  DistributedWilsonOperator<double> dist(u, 0.12, ProcessGrid({2, 1, 1, 1}));
  FaultInjector fi(7);
  fi.schedule_kill(1, dist.cluster().stats().exchanges);
  dist.cluster().set_fault_injector(&fi);
  EXPECT_THROW(dist.apply(out.span(), in.span()), TransientError);
  EXPECT_FALSE(dist.cluster().exchange_in_flight());
  dist.cluster().set_fault_injector(nullptr);
  // The failed begin was rolled back; the next apply runs clean.
  FermionFieldD again(geo8()), ref(geo8());
  dist.apply(again.span(), in.span());
  DistributedWilsonOperator<double> fresh(u, 0.12, ProcessGrid({2, 1, 1, 1}));
  fresh.apply(ref.span(), in.span());
  EXPECT_EQ(span_diff2(again.span(), ref.span()), 0.0);
}

TEST(OverlapFault, RetryExhaustionInFinishLeavesClusterReusable) {
  // Only rank 0's receives are corrupted: its finish exhausts the retry
  // budget while the other ranks complete theirs. The cluster must roll
  // every rank back onto one exchange epoch, so the next apply runs clean.
  const GaugeFieldD u = thermal8(380);
  FermionFieldD in(geo8()), out(geo8()), ref(geo8());
  fill_random(in.span(), 381);
  DistributedWilsonOperator<double> dist(u, 0.12, ProcessGrid({2, 1, 1, 2}));
  FaultInjector fi(8);
  FaultSpec corrupt;
  corrupt.corrupt_prob = 1.0;
  fi.set_rank_spec(0, corrupt);
  dist.cluster().set_resilience({.checksum = true, .max_retries = 1});
  dist.cluster().set_fault_injector(&fi);
  EXPECT_THROW(dist.apply(out.span(), in.span()), FatalError);
  EXPECT_FALSE(dist.cluster().exchange_in_flight());
  dist.cluster().set_fault_injector(nullptr);
  dist.apply(out.span(), in.span());
  DistributedWilsonOperator<double> fresh(u, 0.12, ProcessGrid({2, 1, 1, 2}));
  fresh.apply(ref.span(), in.span());
  EXPECT_EQ(span_diff2(out.span(), ref.span()), 0.0);
}

TEST(OverlapStatsTest, PhaseTimesAndHiddenFraction) {
  const GaugeFieldD u = thermal8(350);
  FermionFieldD in(geo8()), out(geo8());
  fill_random(in.span(), 351);
  DistributedWilsonOperator<double> dist(u, 0.12, ProcessGrid({2, 1, 1, 2}));
  for (int k = 0; k < 3; ++k) dist.apply(out.span(), in.span());
  const OverlapStats& ov = dist.overlap_stats();
  EXPECT_EQ(ov.applies, 3);
  EXPECT_GT(ov.interior_sites, 0);
  EXPECT_GT(ov.surface_sites, 0);
  EXPECT_GE(ov.t_comm_s(), 0.0);
  EXPECT_GT(ov.t_compute_s(), 0.0);
  EXPECT_GE(ov.hidden_fraction(), 0.0);
  EXPECT_LE(ov.hidden_fraction(), 1.0);
  EXPECT_LE(ov.t_overlapped_s(), ov.t_sequential_s());
  dist.reset_overlap_stats();
  EXPECT_EQ(dist.overlap_stats().applies, 0);
}

// --- distributed even-odd / Schur path ---------------------------------

class DistSchurGrid : public ::testing::TestWithParam<Coord> {};

TEST_P(DistSchurGrid, MatchesSingleDomainSchurOperator) {
  const GaugeFieldD u = thermal8(360);
  const double kappa = 0.12;
  const std::int64_t hv = geo8().half_volume();
  SchurWilsonOperator<double> single(u, kappa);
  DistributedSchurWilsonOperator<double> dist(u, kappa,
                                              ProcessGrid(GetParam()));

  std::vector<WilsonSpinorD> xo(static_cast<std::size_t>(hv));
  std::vector<WilsonSpinorD> a(static_cast<std::size_t>(hv));
  std::vector<WilsonSpinorD> b(static_cast<std::size_t>(hv));
  fill_random(xo, 361);
  single.apply(a, xo);
  dist.apply(b, xo);
  EXPECT_EQ(span_diff2(a, b), 0.0) << "apply";
  dist.set_overlap(false);
  dist.apply(b, xo);
  EXPECT_EQ(span_diff2(a, b), 0.0) << "apply (blocking)";
  dist.set_overlap(true);

  FermionFieldD bfull(geo8());
  fill_random(bfull.span(), 362);
  single.prepare_rhs(a, bfull.span());
  dist.prepare_rhs(b, bfull.span());
  EXPECT_EQ(span_diff2(a, b), 0.0) << "prepare_rhs";

  FermionFieldD xa(geo8()), xb(geo8());
  single.reconstruct(xa.span(), xo, bfull.span());
  dist.reconstruct(xb.span(), xo, bfull.span());
  EXPECT_EQ(span_diff2(xa.span(), xb.span()), 0.0) << "reconstruct";
}

INSTANTIATE_TEST_SUITE_P(Grids, DistSchurGrid,
                         ::testing::Values(Coord{1, 1, 1, 1},
                                           Coord{2, 1, 1, 2},
                                           Coord{2, 2, 2, 2}));

TEST(DistSchur, CgIterationsIdenticalToSingleDomain) {
  // eo-CG through the overlapped cluster must reproduce the single-domain
  // iteration history exactly — the Schur path feeds every production
  // solve, so this is the bit-identity claim that matters most.
  const GaugeFieldD u = thermal8(370);
  const double kappa = 0.12;
  const std::int64_t hv = geo8().half_volume();
  SchurWilsonOperator<double> single(u, kappa);
  DistributedSchurWilsonOperator<double> dist(u, kappa,
                                              ProcessGrid({2, 1, 1, 2}));
  NormalOperator<double> n_single(single);
  NormalOperator<double> n_dist(dist);

  std::vector<WilsonSpinorD> rhs(static_cast<std::size_t>(hv));
  std::vector<WilsonSpinorD> x1(static_cast<std::size_t>(hv));
  std::vector<WilsonSpinorD> x2(static_cast<std::size_t>(hv));
  fill_random(rhs, 371);
  SolverParams p{.tol = 1e-10, .max_iterations = 2000};
  const SolverResult r1 = cg_solve<double>(n_single, x1, rhs, p);
  const SolverResult r2 = cg_solve<double>(n_dist, x2, rhs, p);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(span_diff2(x1, x2), 0.0);
}

}  // namespace
}  // namespace lqcd
