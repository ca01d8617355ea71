// Tests for the communication substrate: process grids, the functional
// virtual cluster (halo exchange correctness, distributed operator
// equivalence) and the analytic machine/performance models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "comm/halo.hpp"
#include "comm/machine.hpp"
#include "comm/perf_model.hpp"
#include "comm/process_grid.hpp"
#include "dirac/normal.hpp"
#include "gauge/heatbath.hpp"
#include "linalg/blas.hpp"
#include "solver/cg.hpp"

namespace lqcd {
namespace {

TEST(ProcessGrid, RankCoordsBijection) {
  const ProcessGrid pg({2, 3, 1, 4});
  EXPECT_EQ(pg.size(), 24);
  for (int r = 0; r < pg.size(); ++r)
    EXPECT_EQ(pg.rank_of(pg.coords_of(r)), r);
}

TEST(ProcessGrid, NeighborsWrap) {
  const ProcessGrid pg({2, 1, 1, 3});
  const int r = pg.rank_of({1, 0, 0, 2});
  EXPECT_EQ(pg.neighbor(r, 0, +1), pg.rank_of({0, 0, 0, 2}));
  EXPECT_EQ(pg.neighbor(r, 3, +1), pg.rank_of({1, 0, 0, 0}));
  EXPECT_EQ(pg.neighbor(r, 3, -1), pg.rank_of({1, 0, 0, 1}));
  // Self-neighbor in an undecomposed direction.
  EXPECT_EQ(pg.neighbor(r, 1, +1), r);
}

TEST(ProcessGrid, LocalDimsValidation) {
  const ProcessGrid pg({2, 1, 1, 1});
  EXPECT_EQ(pg.local_dims({8, 4, 4, 4})[0], 4);
  EXPECT_THROW(pg.local_dims({6, 4, 4, 4}), Error);  // 3 is odd
  const ProcessGrid pg3({3, 1, 1, 1});
  EXPECT_THROW(pg3.local_dims({8, 4, 4, 4}), Error);  // not divisible
}

TEST(ChooseGrid, ProducesValidDecompositions) {
  for (int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    const Coord global{16, 16, 16, 32};
    ASSERT_TRUE(can_decompose(global, nodes)) << nodes;
    const Coord g = choose_grid(global, nodes);
    int prod = 1;
    for (int mu = 0; mu < Nd; ++mu) {
      EXPECT_EQ(global[mu] % g[mu], 0);
      EXPECT_EQ((global[mu] / g[mu]) % 2, 0);
      prod *= g[mu];
    }
    EXPECT_EQ(prod, nodes);
  }
}

TEST(ChooseGrid, RejectsImpossible) {
  EXPECT_FALSE(can_decompose({4, 4, 4, 4}, 1024));  // local would be odd
  EXPECT_FALSE(can_decompose({8, 8, 8, 8}, 11));    // large prime
  EXPECT_THROW(choose_grid({4, 4, 4, 4}, 1024), Error);
}

TEST(ChooseGrid, SplitsLongestDirectionFirst) {
  const Coord g = choose_grid({8, 8, 8, 32}, 4);
  EXPECT_EQ(g[3], 4);  // time dominates
}

TEST(HaloLatticeTest, VolumesAndIndexing) {
  const HaloLattice h({4, 4, 2, 6});
  EXPECT_EQ(h.interior_volume(), 4 * 4 * 2 * 6);
  EXPECT_EQ(h.extended_volume(), 6 * 6 * 4 * 8);
  EXPECT_EQ(h.face_volume(2), 4 * 4 * 6);
  // Interior coords round-trip through ext_index uniquely.
  std::vector<char> seen(static_cast<std::size_t>(h.extended_volume()), 0);
  for (std::int64_t i = 0; i < h.interior_volume(); ++i) {
    const Coord x = h.interior_coords(i);
    const std::int64_t e = h.ext_index(x);
    ASSERT_GE(e, 0);
    ASSERT_LT(e, h.extended_volume());
    EXPECT_EQ(seen[static_cast<std::size_t>(e)], 0);
    seen[static_cast<std::size_t>(e)] = 1;
  }
}

TEST(HaloLatticeTest, RejectsThinDomains) {
  EXPECT_THROW(HaloLattice({1, 4, 4, 4}), Error);
}

const LatticeGeometry& geo8() {
  static LatticeGeometry geo({8, 4, 4, 8});
  return geo;
}

// Encode global coordinates in the field value for exchange checks.
WilsonSpinorD coord_tag(const Coord& x) {
  WilsonSpinorD s{};
  s.s[0].c[0] = Cplxd(x[0] + 10.0 * x[1], x[2] + 10.0 * x[3]);
  return s;
}

TEST(VirtualClusterTest, ScatterGatherRoundTrip) {
  const ProcessGrid pg(choose_grid(geo8().dims(), 4));
  VirtualCluster<double> vc(geo8(), pg);
  FermionFieldD f(geo8()), g(geo8());
  for (std::int64_t s = 0; s < geo8().volume(); ++s)
    f[s] = coord_tag(geo8().coords(s));
  auto ranks = vc.make_fermion();
  vc.scatter(ranks, f.span());
  vc.gather(g.span(), ranks);
  double diff = 0.0;
  for (std::int64_t s = 0; s < geo8().volume(); ++s)
    diff += norm2(f[s] - g[s]);
  EXPECT_EQ(diff, 0.0);
}

TEST(VirtualClusterTest, ExchangeFillsGhostsWithWrappedNeighbors) {
  const ProcessGrid pg({2, 1, 1, 2});
  VirtualCluster<double> vc(geo8(), pg);
  FermionFieldD f(geo8());
  for (std::int64_t s = 0; s < geo8().volume(); ++s)
    f[s] = coord_tag(geo8().coords(s));
  auto ranks = vc.make_fermion();
  vc.scatter(ranks, f.span());
  vc.exchange(ranks);

  const HaloLattice& halo = vc.halo();
  for (int r = 0; r < vc.ranks(); ++r) {
    const auto& loc = ranks[static_cast<std::size_t>(r)];
    // Check all 8 ghost faces against wrapped global coordinates.
    for (int mu = 0; mu < Nd; ++mu) {
      for (std::int64_t i = 0; i < halo.interior_volume(); ++i) {
        Coord xl = halo.interior_coords(i);
        if (xl[mu] != 0) continue;
        for (int dir = -1; dir <= 1; dir += 2) {
          Coord ghost = xl;
          ghost[mu] = dir > 0 ? halo.local_dims()[mu] : -1;
          const Coord xg = vc.global_coords(r, ghost);
          const WilsonSpinorD got =
              loc[static_cast<std::size_t>(halo.ext_index(ghost))];
          ASSERT_LT(norm2(got - coord_tag(xg)), 1e-28)
              << "rank " << r << " mu " << mu << " dir " << dir;
        }
      }
    }
  }
}

TEST(HalfCodec, EncodeDecodeRoundTripBounded) {
  // Per-component error of the wire codec is bounded by amax / 2^15 (the
  // scale rides along as float, so decode(encode(x)) is exact in the
  // scale and off by at most half an int16 step per component).
  SiteRngFactory rngs(4100);
  for (std::uint64_t rep = 0; rep < 64; ++rep) {
    CounterRng rng = rngs.make(rep);
    WilsonSpinorD psi;
    const double scale = std::exp(rng.uniform(-12, 12));
    double amax = 0.0;
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c) {
        psi.s[s].c[c] = Cplxd(rng.gaussian() * scale,
                              rng.gaussian() * scale);
        amax = std::max({amax, std::abs(psi.s[s].c[c].re),
                         std::abs(psi.s[s].c[c].im)});
      }
    std::byte wire[detail::kHalfSiteBytes];
    detail::encode_half_site(wire, psi);
    WilsonSpinorD back;
    detail::decode_half_site(back, wire);
    const double bound =
        static_cast<double>(static_cast<float>(amax)) / 32767.0;
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c) {
        EXPECT_LE(std::abs(back.s[s].c[c].re - psi.s[s].c[c].re), bound);
        EXPECT_LE(std::abs(back.s[s].c[c].im - psi.s[s].c[c].im), bound);
      }
  }
}

TEST(HalfCodec, ZeroSiteEncodesToZeroBytes) {
  // The Schur other-parity invariant: an all-zero site must ship as
  // all-zero bytes (scale 0, no 0/0) and decode back to exactly zero.
  const WilsonSpinorD z{};
  std::byte wire[detail::kHalfSiteBytes];
  std::memset(wire, 0xff, sizeof(wire));
  detail::encode_half_site(wire, z);
  for (std::size_t i = 0; i < detail::kHalfSiteBytes; ++i)
    EXPECT_EQ(wire[i], std::byte{0});
  WilsonSpinorD back;
  detail::decode_half_site(back, wire);
  EXPECT_EQ(norm2(back), 0.0);
}

TEST(HalfCodec, PackUnpackFaceRoundTripBothParities) {
  // pack_face_half -> unpack_face_half across every direction, with the
  // source field populated on one parity only (the Schur layout): live
  // sites land in the ghost plane within the block-float bound and the
  // masked parity stays exactly zero.
  const HaloLattice halo({4, 4, 2, 6});
  const auto ext = static_cast<std::size_t>(halo.extended_volume());
  for (int parity = 0; parity < 2; ++parity) {
    aligned_vector<WilsonSpinorD> src(ext), dst(ext);
    SiteRngFactory rngs(4200 + static_cast<std::uint64_t>(parity));
    for (std::int64_t i = 0; i < halo.interior_volume(); ++i) {
      const Coord x = halo.interior_coords(i);
      if ((x[0] + x[1] + x[2] + x[3]) % 2 != parity) continue;
      CounterRng rng = rngs.make(static_cast<std::uint64_t>(i));
      WilsonSpinorD& s = src[static_cast<std::size_t>(halo.ext_index(x))];
      for (int sp = 0; sp < Ns; ++sp)
        for (int c = 0; c < Nc; ++c)
          s.s[sp].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
    }
    for (int mu = 0; mu < Nd; ++mu) {
      // Ship the x[mu] = 0 plane into the far ghost plane, the way the
      // exchange fills a periodic neighbor's ghosts.
      std::vector<std::byte> wire;
      detail::pack_face_half(wire, src, halo, mu, 0);
      ASSERT_EQ(wire.size(), static_cast<std::size_t>(halo.face_volume(mu)) *
                                 detail::kHalfSiteBytes);
      detail::unpack_face_half(dst, std::span<const std::byte>(wire), halo, mu,
                       halo.local_dims()[mu]);
      for (std::int64_t i = 0; i < halo.interior_volume(); ++i) {
        Coord x = halo.interior_coords(i);
        if (x[mu] != 0) continue;
        const WilsonSpinorD& orig =
            src[static_cast<std::size_t>(halo.ext_index(x))];
        Coord g = x;
        g[mu] = halo.local_dims()[mu];
        const WilsonSpinorD& got =
            dst[static_cast<std::size_t>(halo.ext_index(g))];
        double amax = 0.0;
        for (int sp = 0; sp < Ns; ++sp)
          for (int c = 0; c < Nc; ++c)
            amax = std::max({amax, std::abs(orig.s[sp].c[c].re),
                             std::abs(orig.s[sp].c[c].im)});
        if (amax == 0.0) {
          EXPECT_EQ(norm2(got), 0.0) << "masked parity must stay zero";
          continue;
        }
        const double bound = amax / 32767.0;
        for (int sp = 0; sp < Ns; ++sp)
          for (int c = 0; c < Nc; ++c) {
            EXPECT_LE(std::abs(got.s[sp].c[c].re - orig.s[sp].c[c].re),
                      bound);
            EXPECT_LE(std::abs(got.s[sp].c[c].im - orig.s[sp].c[c].im),
                      bound);
          }
      }
    }
  }
}

// The codec on float fields: the HalfCodec tests above run T = double.

TEST(Quantization, SpinorRoundTripRelativeError) {
  // Block float: across 16 decades of magnitude a float spinor
  // round-trips within 1e-3 of its norm.
  CounterRng rng(953, 0);
  for (int rep = 0; rep < 50; ++rep) {
    WilsonSpinor<float> psi;
    const float scale = static_cast<float>(std::exp(rng.uniform(-8, 8)));
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        psi.s[s].c[c] = Cplxf(static_cast<float>(rng.gaussian()) * scale,
                              static_cast<float>(rng.gaussian()) * scale);
    std::byte wire[detail::kHalfSiteBytes];
    detail::encode_half_site(wire, psi);
    WilsonSpinor<float> q;
    detail::decode_half_site(q, wire);
    const float n_ref = std::sqrt(norm2(psi));
    const float err = std::sqrt(norm2(q - psi));
    EXPECT_LT(err, 1e-3f * n_ref);
  }
}

TEST(Quantization, ZeroSpinorExact) {
  const WilsonSpinor<float> z{};
  std::byte wire[detail::kHalfSiteBytes];
  std::memset(wire, 0xff, sizeof(wire));
  detail::encode_half_site(wire, z);
  for (std::size_t i = 0; i < detail::kHalfSiteBytes; ++i)
    EXPECT_EQ(wire[i], std::byte{0});
  WilsonSpinor<float> back;
  detail::decode_half_site(back, wire);
  EXPECT_EQ(norm2(back), 0.0f);
}

TEST(Quantization, DenormalScaleAmaxFlushesToZero) {
  // A site whose amax is subnormal in float would overflow 1/scale to
  // inf (turning exactly-zero components into 0 * inf = NaN, whose int16
  // cast is UB). The codec flushes such sites to the zero encoding
  // instead — values below the float normal range are zero to every
  // consumer of half storage, and they must never poison a field. A
  // double site that small flushes the same way, so the wire bytes stay
  // T-independent.
  const auto expect_zero_encoding = [](const std::byte* wire) {
    for (std::size_t i = 0; i < detail::kHalfSiteBytes; ++i)
      EXPECT_EQ(wire[i], std::byte{0});
  };
  std::byte wire[detail::kHalfSiteBytes];
  WilsonSpinor<float> psi{};
  psi.s[0].c[0] = Cplxf(1e-41f, -5e-42f);
  psi.s[3].c[2] = Cplxf(0.0f, 2e-42f);
  detail::encode_half_site(wire, psi);
  expect_zero_encoding(wire);
  WilsonSpinor<float> back;
  detail::decode_half_site(back, wire);
  EXPECT_EQ(norm2(back), 0.0f);
  WilsonSpinorD psid{};
  psid.s[0].c[0] = Cplxd(1e-41, -5e-42);
  detail::encode_half_site(wire, psid);
  expect_zero_encoding(wire);
  // ...while the smallest *normal* amax still round-trips within the
  // block-float bound (1/scale stays finite there).
  WilsonSpinor<float> tiny{};
  const float a = std::numeric_limits<float>::min();  // 2^-126
  tiny.s[0].c[0] = Cplxf(a, -0.5f * a);
  detail::encode_half_site(wire, tiny);
  WilsonSpinor<float> qt;
  detail::decode_half_site(qt, wire);
  EXPECT_TRUE(std::isfinite(qt.s[0].c[0].re));
  EXPECT_NEAR(qt.s[0].c[0].re, a, a / 32767.0f);
  EXPECT_EQ(qt.s[1].c[1].re, 0.0f);
}

TEST(VirtualClusterTest, HalfExchangeGhostsTrackFullWithinQuantization) {
  const ProcessGrid pg({2, 1, 1, 2});
  VirtualCluster<double> vc(geo8(), pg);
  FermionFieldD f(geo8());
  SiteRngFactory rngs(4300);
  for (std::int64_t s = 0; s < geo8().volume(); ++s) {
    CounterRng rng = rngs.make(static_cast<std::uint64_t>(s));
    for (int sp = 0; sp < Ns; ++sp)
      for (int c = 0; c < Nc; ++c)
        f[s].s[sp].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
  auto full = vc.make_fermion();
  vc.scatter(full, f.span());
  auto half = full;  // same interiors
  vc.exchange(full);

  vc.set_halo_precision(HaloPrecision::kHalf);
  vc.stats().reset();
  vc.exchange(half);
  EXPECT_EQ(vc.stats().compressed_frames,
            static_cast<std::int64_t>(pg.size()) * 2 * Nd);
  EXPECT_EQ(vc.stats().full_equiv_bytes,
            static_cast<std::int64_t>(pg.size()) *
                detail::face_payload_bytes<WilsonSpinorD>(vc.halo(),
                                                  HaloPrecision::kFull));

  double err = 0.0, ref = 0.0;
  for (int r = 0; r < vc.ranks(); ++r) {
    const auto& a = full[static_cast<std::size_t>(r)];
    const auto& b = half[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < a.size(); ++i) {
      err += norm2(a[i] - b[i]);
      ref += norm2(a[i]);
    }
  }
  const double rel = std::sqrt(err / ref);
  EXPECT_GT(rel, 0.0);    // the wire really quantized
  EXPECT_LT(rel, 1e-4);   // ...at the int16 block-float level
}

TEST(VirtualClusterTest, WireEmulationChargesModeledDelay) {
  // set_wire_emulation prices every wire byte at the given bandwidth:
  // the slept time lands in modeled_delay_us and matches the counter
  // arithmetic exactly; switching it off stops the charging.
  const ProcessGrid pg({2, 1, 1, 2});
  VirtualCluster<double> vc(geo8(), pg);
  auto ranks = vc.make_fermion();
  const double bps = 1e12;  // fast enough that the sleep is negligible
  vc.set_wire_emulation(bps);
  EXPECT_EQ(vc.wire_emulation(), bps);
  vc.stats().reset();
  vc.exchange(ranks);
  const double expect_us =
      static_cast<double>(vc.stats().wire_bytes) / bps * 1e6;
  EXPECT_GT(vc.stats().modeled_delay_us, 0.0);
  EXPECT_NEAR(vc.stats().modeled_delay_us, expect_us, 1e-9);
  vc.set_wire_emulation(0.0);
  vc.stats().reset();
  vc.exchange(ranks);
  EXPECT_EQ(vc.stats().modeled_delay_us, 0.0);
}

TEST(VirtualClusterTest, CommStatsCountMessagesAndBytes) {
  const ProcessGrid pg({2, 1, 1, 2});
  VirtualCluster<double> vc(geo8(), pg);
  auto ranks = vc.make_fermion();
  vc.stats().reset();
  vc.exchange(ranks);
  // 4 ranks x 8 faces.
  EXPECT_EQ(vc.stats().messages, 4 * 8);
  EXPECT_EQ(vc.stats().exchanges, 1);
  // Bytes: per rank, 2 faces per direction x face sites x sizeof(spinor).
  std::int64_t want = 0;
  for (int mu = 0; mu < Nd; ++mu)
    want += 2 * vc.halo().face_volume(mu) *
            static_cast<std::int64_t>(sizeof(WilsonSpinorD));
  EXPECT_EQ(vc.stats().bytes, 4 * want);
}

GaugeFieldD thermal8(std::uint64_t seed) {
  GaugeFieldD u(geo8());
  u.set_random(SiteRngFactory(seed));
  Heatbath hb(u, {.beta = 5.9, .or_per_hb = 1, .seed = seed + 1});
  for (int i = 0; i < 3; ++i) hb.sweep();
  return u;
}

class DistributedOpGrid : public ::testing::TestWithParam<Coord> {};

TEST_P(DistributedOpGrid, MatchesSingleDomainOperator) {
  const GaugeFieldD u = thermal8(300);
  const double kappa = 0.12;
  WilsonOperator<double> single(u, kappa);
  DistributedWilsonOperator<double> dist(u, kappa, ProcessGrid(GetParam()));

  FermionFieldD in(geo8()), a(geo8()), b(geo8());
  SiteRngFactory rngs(301);
  for (std::int64_t s = 0; s < geo8().volume(); ++s) {
    CounterRng rng = rngs.make(static_cast<std::uint64_t>(s));
    for (int sp = 0; sp < Ns; ++sp)
      for (int c = 0; c < Nc; ++c)
        in[s].s[sp].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
  single.apply(a.span(), in.span());
  dist.apply(b.span(), in.span());
  double diff = 0.0;
  for (std::int64_t s = 0; s < geo8().volume(); ++s)
    diff += norm2(a[s] - b[s]);
  // Same arithmetic in the same order: bit-for-bit equality.
  EXPECT_EQ(diff, 0.0) << "grid " << GetParam()[0] << GetParam()[1]
                       << GetParam()[2] << GetParam()[3];
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DistributedOpGrid,
    ::testing::Values(Coord{1, 1, 1, 1}, Coord{2, 1, 1, 1},
                      Coord{1, 1, 1, 2}, Coord{2, 1, 1, 2},
                      Coord{2, 2, 1, 2}, Coord{2, 2, 2, 2},
                      Coord{4, 1, 1, 4}));

TEST(DistributedOp, SolverIterationsIdenticalToSingleDomain) {
  // CG through the virtual cluster must reproduce the single-domain
  // iteration history exactly — decomposition is algorithm-invisible.
  const GaugeFieldD u = thermal8(302);
  const double kappa = 0.12;
  WilsonOperator<double> single(u, kappa);
  DistributedWilsonOperator<double> dist(u, kappa,
                                         ProcessGrid({2, 1, 1, 2}));
  NormalOperator<double> n_single(single);
  NormalOperator<double> n_dist(dist);

  FermionFieldD b(geo8()), x1(geo8()), x2(geo8());
  SiteRngFactory rngs(303);
  for (std::int64_t s = 0; s < geo8().volume(); ++s) {
    CounterRng rng = rngs.make(static_cast<std::uint64_t>(s));
    b[s].s[0].c[0] = Cplxd(rng.gaussian(), rng.gaussian());
  }
  SolverParams p{.tol = 1e-10, .max_iterations = 2000};
  const SolverResult r1 = cg_solve<double>(n_single, x1.span(), b.span(), p);
  const SolverResult r2 = cg_solve<double>(n_dist, x2.span(), b.span(), p);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  double diff = 0.0;
  for (std::int64_t s = 0; s < geo8().volume(); ++s)
    diff += norm2(x1[s] - x2[s]);
  EXPECT_EQ(diff, 0.0);
}

TEST(MachineModels, PresetsSane) {
  for (const auto& m : {blue_gene_q(), k_computer(), generic_cluster()}) {
    EXPECT_GT(m.node_gflops_double, 0.0);
    EXPECT_GT(m.node_gflops_single, m.node_gflops_double * 0.9);
    EXPECT_GT(m.mem_bw_gbs, 0.0);
    EXPECT_GT(m.link_bw_gbs, 0.0);
    EXPECT_GT(m.link_latency_us, 0.0);
    EXPECT_GT(m.compute_efficiency, 0.0);
    EXPECT_LE(m.compute_efficiency, 1.0);
  }
  EXPECT_EQ(machine_by_name("bgq").name, blue_gene_q().name);
  EXPECT_THROW(machine_by_name("roadrunner"), Error);
}

TEST(PerfModel, NoCommOnSingleNode) {
  PerfModelOptions opt;
  const DslashCost c =
      model_dslash({8, 8, 8, 8}, {1, 1, 1, 1}, blue_gene_q(), opt);
  EXPECT_EQ(c.messages, 0);
  EXPECT_EQ(c.comm_bytes, 0.0);
  EXPECT_EQ(c.t_comm, 0.0);
  EXPECT_GT(c.t_compute, 0.0);
  EXPECT_DOUBLE_EQ(c.t_total, c.t_compute);
}

TEST(PerfModel, CommGrowsWithDecomposedDirections) {
  PerfModelOptions opt;
  const DslashCost c1 =
      model_dslash({8, 8, 8, 8}, {2, 1, 1, 1}, blue_gene_q(), opt);
  const DslashCost c4 =
      model_dslash({8, 8, 8, 8}, {2, 2, 2, 2}, blue_gene_q(), opt);
  EXPECT_GT(c4.comm_bytes, c1.comm_bytes);
  EXPECT_GT(c4.messages, c1.messages);
}

TEST(PerfModel, HalfSpinorCommHalvesBytes) {
  PerfModelOptions full;
  full.half_spinor_comm = false;
  PerfModelOptions half;
  half.half_spinor_comm = true;
  const DslashCost cf =
      model_dslash({8, 8, 8, 8}, {2, 2, 2, 2}, blue_gene_q(), full);
  const DslashCost ch =
      model_dslash({8, 8, 8, 8}, {2, 2, 2, 2}, blue_gene_q(), half);
  EXPECT_NEAR(ch.comm_bytes, cf.comm_bytes / 2.0, 1.0);
}

TEST(PerfModel, FloatFasterThanDouble) {
  PerfModelOptions d;
  d.precision_bytes = 8;
  PerfModelOptions f;
  f.precision_bytes = 4;
  const DslashCost cd =
      model_dslash({8, 8, 8, 8}, {1, 1, 1, 1}, blue_gene_q(), d);
  const DslashCost cf =
      model_dslash({8, 8, 8, 8}, {1, 1, 1, 1}, blue_gene_q(), f);
  EXPECT_LT(cf.t_compute, cd.t_compute);
}

TEST(PerfModel, StrongScalingShape) {
  PerfModelOptions opt;
  const std::vector<int> nodes = {16, 64, 256, 1024, 4096};
  const auto pts =
      strong_scaling({48, 48, 48, 96}, blue_gene_q(), opt, nodes);
  ASSERT_GE(pts.size(), 4u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    // Total throughput rises with nodes, time per iteration falls.
    EXPECT_GT(pts[i].sustained_tflops, pts[i - 1].sustained_tflops);
    EXPECT_LT(pts[i].cost.t_iter, pts[i - 1].cost.t_iter);
    // Efficiency decays monotonically (surface/volume + allreduce).
    EXPECT_LE(pts[i].efficiency, pts[i - 1].efficiency + 1e-12);
    // Comm fraction grows.
    EXPECT_GE(pts[i].cost.comm_fraction,
              pts[i - 1].cost.comm_fraction - 1e-12);
  }
  EXPECT_NEAR(pts.front().efficiency, 1.0, 1e-12);
}

TEST(PerfModel, WeakScalingNearFlat) {
  PerfModelOptions opt;
  const std::vector<int> nodes = {16, 128, 1024, 8192, 65536};
  const auto pts = weak_scaling({16, 16, 16, 16}, blue_gene_q(), opt, nodes);
  ASSERT_EQ(pts.size(), nodes.size());
  // Weak scaling on a torus: efficiency stays high out to huge machines;
  // only the log(N) allreduce bites.
  for (const auto& pt : pts) EXPECT_GT(pt.efficiency, 0.8);
  EXPECT_GT(pts.back().sustained_tflops,
            1000.0 * pts.front().sustained_tflops / nodes.back() * 16);
}

TEST(PerfModel, StrongScalingSkipsImpossibleNodeCounts) {
  PerfModelOptions opt;
  const auto pts = strong_scaling({8, 8, 8, 16}, blue_gene_q(), opt,
                                  {1, 2, 7, 4096});
  // 7 has no factorization; 4096 would need odd local extents.
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].nodes, 1);
  EXPECT_EQ(pts[1].nodes, 2);
}

TEST(PerfModel, CgIterationIncludesAllreduce) {
  PerfModelOptions opt;
  const IterationCost c1 =
      model_cg_iteration({8, 8, 8, 8}, {2, 2, 2, 2}, 16, blue_gene_q(), opt);
  const IterationCost c2 = model_cg_iteration({8, 8, 8, 8}, {2, 2, 2, 2},
                                              65536, blue_gene_q(), opt);
  EXPECT_GT(c2.t_allreduce, c1.t_allreduce);
  EXPECT_GT(c2.t_iter, c1.t_iter);
}

TEST(PerfModel, SapTradesCommForLocalWork) {
  PerfModelOptions opt;
  const Coord local{4, 4, 4, 4};
  const Coord grid{8, 8, 8, 8};
  const int nodes = 4096;
  const IterationCost cg =
      model_cg_iteration(local, grid, nodes, blue_gene_q(), opt);
  const IterationCost sap = model_sap_gcr_iteration(
      local, grid, nodes, blue_gene_q(), opt, 4, 4);
  // Per iteration SAP does more local flops but communicates relatively
  // less of its time.
  EXPECT_GT(sap.dslash.flops, cg.dslash.flops);
  EXPECT_LT(sap.comm_fraction, cg.comm_fraction);
}

TEST(PerfModel, CalibrationPositive) {
  const double c = calibrate_node(generic_cluster(), 8);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1e4);
}

}  // namespace
}  // namespace lqcd
