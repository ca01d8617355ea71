// Tests for the SoA lane-vectorized path: the Simd<T, W> scalar type, the
// VectorLattice site packing, and — the central claim — that the
// lane-packed dslash/operators are BIT-IDENTICAL to the scalar reference
// at every supported width (W in {1, 4, 8}, float and double, both
// parities, wrap-heavy geometries), with a scalar fallback when the
// geometry does not lane-decompose.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dirac/eo.hpp"
#include "dirac/simd_wilson.hpp"
#include "dirac/wilson.hpp"
#include "gauge/gauge_field.hpp"
#include "lattice/vector_lattice.hpp"
#include "linalg/blas.hpp"
#include "linalg/lanes.hpp"
#include "linalg/simd.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace lqcd {
namespace {

template <typename T>
void fill_random(std::span<WilsonSpinor<T>> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplx<T>(static_cast<T>(rng.gaussian()),
                                 static_cast<T>(rng.gaussian()));
  }
}

template <typename T>
int count_mismatches(std::span<const WilsonSpinor<T>> a,
                     std::span<const WilsonSpinor<T>> b) {
  int bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        if (!(a[i].s[s].c[c] == b[i].s[s].c[c])) ++bad;
  return bad;
}

template <typename T>
std::span<const WilsonSpinor<T>> cspan(
    const aligned_vector<WilsonSpinor<T>>& v) {
  return {v.data(), v.size()};
}
template <typename T>
std::span<WilsonSpinor<T>> span(aligned_vector<WilsonSpinor<T>>& v) {
  return {v.data(), v.size()};
}

// --- Simd scalar type ------------------------------------------------------

TEST(Simd, LaneArithmeticMatchesScalar) {
  Simd<float, 4> a, b;
  const float av[4] = {1.5f, -2.25f, 0.0f, 3.0f};
  const float bv[4] = {0.5f, 4.0f, -1.0f, 2.0f};
  for (int l = 0; l < 4; ++l) {
    a.set_lane(l, av[l]);
    b.set_lane(l, bv[l]);
  }
  const Simd<float, 4> s = a + b, d = a - b, p = a * b, n = -a;
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(s.lane(l), av[l] + bv[l]);
    EXPECT_EQ(d.lane(l), av[l] - bv[l]);
    EXPECT_EQ(p.lane(l), av[l] * bv[l]);
    EXPECT_EQ(n.lane(l), -av[l]);
  }
}

TEST(Simd, DefaultIsZeroAndBroadcastFills) {
  const Simd<double, 8> z;
  const Simd<double, 8> b(2.5);
  const Simd<double, 8> i(3);  // int broadcast, as in T(pre) phase factors
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(z.lane(l), 0.0);
    EXPECT_EQ(b.lane(l), 2.5);
    EXPECT_EQ(i.lane(l), 3.0);
  }
}

TEST(Simd, ShuffleAppliesPermutation) {
  Simd<float, 4> a;
  for (int l = 0; l < 4; ++l) a.set_lane(l, static_cast<float>(l + 1));
  const int perm[4] = {1, 2, 3, 0};
  const Simd<float, 4> r = shuffle(a, perm);
  for (int l = 0; l < 4; ++l)
    EXPECT_EQ(r.lane(l), static_cast<float>(perm[l] + 1));
}

TEST(Simd, Traits) {
  static_assert(is_simd_v<Simd<float, 4>>);
  static_assert(!is_simd_v<float>);
  static_assert(simd_width_v<Simd<double, 8>> == 8);
  static_assert(simd_width_v<double> == 1);
  static_assert(std::is_same_v<simd_scalar_t<Simd<float, 4>>, float>);
  static_assert(std::is_same_v<simd_scalar_t<float>, float>);
  // W = 1 must work as the portable fallback.
  Simd<double, 1> one(7.0);
  EXPECT_EQ((one * one).lane(0), 49.0);
}

// The complex kernels instantiate over Simd and must produce, per lane,
// exactly the scalar arithmetic.
TEST(Simd, CplxKernelsBitwisePerLane) {
  constexpr int W = 4;
  Cplx<float> as[W], bs[W], accs[W];
  SiteRngFactory rngs(11);
  CounterRng rng = rngs.make(0);
  for (int l = 0; l < W; ++l) {
    as[l] = {static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian())};
    bs[l] = {static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian())};
    accs[l] = {static_cast<float>(rng.gaussian()),
               static_cast<float>(rng.gaussian())};
  }
  Cplx<Simd<float, W>> a, b, acc;
  for (int l = 0; l < W; ++l) {
    insert_lane(a, l, as[l]);
    insert_lane(b, l, bs[l]);
    insert_lane(acc, l, accs[l]);
  }
  const Cplx<Simd<float, W>> prod = a * b;
  fma_conj_acc(acc, a, b);
  for (int l = 0; l < W; ++l) {
    Cplx<float> acc_ref = accs[l];
    fma_conj_acc(acc_ref, as[l], bs[l]);
    EXPECT_EQ(extract_lane(prod, l), as[l] * bs[l]);
    EXPECT_EQ(extract_lane(acc, l), acc_ref);
  }
}

// --- VectorLattice ---------------------------------------------------------

void check_mapping(const Coord& dims, int width) {
  const LatticeGeometry geo(dims);
  auto vl = VectorLattice::make(geo, width);
  ASSERT_TRUE(vl.has_value()) << "expected decomposable geometry";
  EXPECT_EQ(vl->inner_sites() * width, geo.volume());

  // Exact cover: every scalar site appears in exactly one (vo, lane).
  std::vector<int> seen(static_cast<std::size_t>(geo.volume()), 0);
  for (std::int64_t vo = 0; vo < vl->inner_sites(); ++vo)
    for (int l = 0; l < width; ++l) {
      const std::int64_t s = vl->site_of(vo, l);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, geo.volume());
      seen[static_cast<std::size_t>(s)]++;
      // All lanes of a vector site share the outer parity.
      EXPECT_EQ(geo.parity_of(s), vl->outer_geometry().parity_of(vo));
      // gather() is the inverse map.
      EXPECT_EQ(vl->gather()[static_cast<std::size_t>(s)],
                vo * width + l);
    }
  for (int c : seen) EXPECT_EQ(c, 1);

  // Neighbor resolution: fwd/bwd land in the extended range, and
  // non-ghost neighbors agree lane-by-lane with the scalar tables.
  for (std::int64_t vo = 0; vo < vl->inner_sites(); ++vo)
    for (int mu = 0; mu < Nd; ++mu) {
      const std::int64_t f = vl->fwd(vo, mu);
      const std::int64_t b = vl->bwd(vo, mu);
      ASSERT_GE(f, 0);
      ASSERT_LT(f, vl->total_sites());
      ASSERT_GE(b, 0);
      ASSERT_LT(b, vl->total_sites());
      if (f < vl->inner_sites()) {
        for (int l = 0; l < width; ++l)
          EXPECT_EQ(vl->site_of(f, l), geo.fwd(vl->site_of(vo, l), mu));
      }
      if (b < vl->inner_sites()) {
        for (int l = 0; l < width; ++l)
          EXPECT_EQ(vl->site_of(b, l), geo.bwd(vl->site_of(vo, l), mu));
      }
    }
}

TEST(VectorLattice, Mapping4x4x4x4W4) { check_mapping({4, 4, 4, 4}, 4); }
TEST(VectorLattice, Mapping4x4x4x4W8) { check_mapping({4, 4, 4, 4}, 8); }
TEST(VectorLattice, Mapping8x4x4x6W4) { check_mapping({8, 4, 4, 6}, 4); }
TEST(VectorLattice, MappingW1IsIdentityLayout) {
  const LatticeGeometry geo({4, 4, 4, 4});
  auto vl = VectorLattice::make(geo, 1);
  ASSERT_TRUE(vl.has_value());
  EXPECT_EQ(vl->ghost_sites(), 0);
  for (std::int64_t s = 0; s < geo.volume(); ++s)
    EXPECT_EQ(vl->site_of(s, 0), s);
}

TEST(VectorLattice, RejectsUndecomposableGeometries) {
  // 2^4: any split would make an outer extent odd (=1). This is the
  // "remainder" case of this layout — four even extents make volume % W
  // == 0 vacuous for W <= 16, so indivisible extents are what triggers
  // the scalar fallback.
  EXPECT_FALSE(VectorLattice::supports(LatticeGeometry({2, 2, 2, 2}), 2));
  EXPECT_FALSE(VectorLattice::supports(LatticeGeometry({2, 2, 2, 2}), 8));
  // 6 = 2*3: one factor of 2 is fine (outer 3 is odd — not fine).
  EXPECT_FALSE(VectorLattice::supports(LatticeGeometry({6, 2, 2, 2}), 2));
  // Non-power-of-two widths are not supported.
  EXPECT_FALSE(VectorLattice::supports(LatticeGeometry({8, 8, 8, 8}), 3));
  // Sanity: the workhorse geometries are supported.
  EXPECT_TRUE(VectorLattice::supports(LatticeGeometry({4, 4, 4, 4}), 8));
  EXPECT_TRUE(VectorLattice::supports(LatticeGeometry({8, 8, 8, 8}), 8));
}

TEST(VectorLattice, PackUnpackRoundTrip) {
  constexpr int W = 4;
  const LatticeGeometry geo({4, 4, 4, 4});
  auto vl = VectorLattice::make(geo, W);
  ASSERT_TRUE(vl.has_value());
  aligned_vector<WilsonSpinor<float>> in(
      static_cast<std::size_t>(geo.volume())),
      back(static_cast<std::size_t>(geo.volume()));
  fill_random(span(in), 3);
  aligned_vector<WilsonSpinor<Simd<float, W>>> packed(
      static_cast<std::size_t>(vl->total_sites()));
  pack_sites<float, W>(*vl, cspan(in), span(packed));
  unpack_sites<float, W>(*vl, cspan(packed), span(back));
  EXPECT_EQ(count_mismatches(cspan(in), cspan(back)), 0);

  // Parity halves round-trip into the matching blocks.
  const auto hv = static_cast<std::size_t>(geo.half_volume());
  for (int p = 0; p < 2; ++p) {
    aligned_vector<WilsonSpinor<float>> half(hv), half_back(hv);
    fill_random(span(half), 17 + static_cast<std::uint64_t>(p));
    pack_parity<float, W>(*vl, cspan(half), span(packed), p);
    unpack_parity<float, W>(*vl, cspan(packed), span(half_back), p);
    EXPECT_EQ(count_mismatches(cspan(half), cspan(half_back)), 0);
  }
}

// --- bitwise dslash equivalence --------------------------------------------

template <typename T, int W>
void check_dslash_bitwise(const Coord& dims) {
  const LatticeGeometry geo(dims);
  auto vl = VectorLattice::make(geo, W);
  ASSERT_TRUE(vl.has_value());
  GaugeField<T> u(geo);
  u.set_random(SiteRngFactory(5));
  const GaugeField<T> links = make_fermion_links(u, TimeBoundary::Antiperiodic);

  const auto vol = static_cast<std::size_t>(geo.volume());
  aligned_vector<WilsonSpinor<T>> in(vol), ref(vol), got(vol);
  fill_random(span(in), 23);

  const VectorGaugeField<T, W> vg(*vl, links);
  aligned_vector<WilsonSpinor<Simd<T, W>>> vin(
      static_cast<std::size_t>(vl->total_sites())),
      vout(static_cast<std::size_t>(vl->total_sites()));

  // Full dslash.
  dslash_full(span(ref), cspan(in), links);
  pack_sites<T, W>(*vl, cspan(in), span(vin));
  vl->fill_ghosts(span(vin));
  simd_dslash_full<T, W>(span(vout), cspan(vin), vg);
  unpack_sites<T, W>(*vl, cspan(vout), span(got));
  EXPECT_EQ(count_mismatches(cspan(ref), cspan(got)), 0)
      << "full dslash not bitwise at W=" << W;

  // Parity dslash, both targets. The scalar kernel writes only the
  // target block, so compare block-wise via parity unpack.
  const auto hv = static_cast<std::size_t>(geo.half_volume());
  for (int p = 0; p < 2; ++p) {
    dslash_parity(span(ref), cspan(in), links, p);
    vl->fill_ghosts(span(vin), 1 - p);
    simd_dslash_parity<T, W>(span(vout), cspan(vin), vg, p);
    aligned_vector<WilsonSpinor<T>> ref_half(hv), got_half(hv);
    for (std::size_t i = 0; i < hv; ++i)
      ref_half[i] = ref[(p == 0 ? 0 : hv) + i];
    unpack_parity<T, W>(*vl, cspan(vout), span(got_half), p);
    EXPECT_EQ(count_mismatches(cspan(ref_half), cspan(got_half)), 0)
        << "parity " << p << " dslash not bitwise at W=" << W;
  }
}

TEST(SimdDslash, BitwiseFloatW1) {
  check_dslash_bitwise<float, 1>({4, 4, 4, 4});
}
TEST(SimdDslash, BitwiseFloatW4) {
  check_dslash_bitwise<float, 4>({4, 4, 4, 4});
}
TEST(SimdDslash, BitwiseFloatW8) {
  check_dslash_bitwise<float, 8>({4, 4, 4, 4});
}
TEST(SimdDslash, BitwiseDoubleW1) {
  check_dslash_bitwise<double, 1>({4, 4, 4, 4});
}
TEST(SimdDslash, BitwiseDoubleW4) {
  check_dslash_bitwise<double, 4>({4, 4, 4, 4});
}
TEST(SimdDslash, BitwiseDoubleW8) {
  check_dslash_bitwise<double, 8>({4, 4, 4, 4});
}
// Mixed extents exercise asymmetric splits and wrap faces in several
// directions at once.
TEST(SimdDslash, BitwiseFloatW8Asymmetric) {
  check_dslash_bitwise<float, 8>({8, 4, 4, 6});
}

// --- operators behind the LinearOperator interface -------------------------

template <typename T, int W>
void check_wilson_operator(const Coord& dims, bool expect_active) {
  const LatticeGeometry geo(dims);
  GaugeField<T> u(geo);
  u.set_random(SiteRngFactory(9));
  const double kappa = 0.13;
  const WilsonOperator<T> ref_op(u, kappa);
  const SimdWilsonOperator<T, W> simd_op(u, kappa);
  EXPECT_EQ(simd_op.simd_active(), expect_active);
  EXPECT_EQ(simd_op.vector_size(), ref_op.vector_size());

  const auto vol = static_cast<std::size_t>(geo.volume());
  aligned_vector<WilsonSpinor<T>> in(vol), ref(vol), got(vol);
  fill_random(span(in), 31);
  ref_op.apply(span(ref), cspan(in));
  simd_op.apply(span(got), cspan(in));
  EXPECT_EQ(count_mismatches(cspan(ref), cspan(got)), 0);
}

TEST(SimdWilsonOperator, BitwiseFloatW4) {
  check_wilson_operator<float, 4>({4, 4, 4, 4}, true);
}
TEST(SimdWilsonOperator, BitwiseFloatW8) {
  check_wilson_operator<float, 8>({4, 4, 4, 4}, true);
}
TEST(SimdWilsonOperator, BitwiseDoubleW4) {
  check_wilson_operator<double, 4>({4, 4, 4, 4}, true);
}
TEST(SimdWilsonOperator, FallsBackOnUndecomposableGeometry) {
  check_wilson_operator<float, 8>({2, 2, 2, 2}, false);
}

template <typename T, int W>
void check_schur_operator(const Coord& dims, bool expect_active) {
  const LatticeGeometry geo(dims);
  GaugeField<T> u(geo);
  u.set_random(SiteRngFactory(13));
  const double kappa = 0.12;
  const SchurWilsonOperator<T> ref_op(u, kappa);
  const SimdSchurWilsonOperator<T, W> simd_op(u, kappa);
  EXPECT_EQ(simd_op.simd_active(), expect_active);
  EXPECT_EQ(simd_op.vector_size(), ref_op.vector_size());

  const auto hv = static_cast<std::size_t>(geo.half_volume());
  aligned_vector<WilsonSpinor<T>> in(hv), ref(hv), got(hv);
  fill_random(span(in), 37);
  ref_op.apply(span(ref), cspan(in));
  simd_op.apply(span(got), cspan(in));
  EXPECT_EQ(count_mismatches(cspan(ref), cspan(got)), 0);
}

TEST(SimdSchurOperator, BitwiseFloatW4) {
  check_schur_operator<float, 4>({4, 4, 4, 4}, true);
}
TEST(SimdSchurOperator, BitwiseFloatW8) {
  check_schur_operator<float, 8>({4, 4, 4, 4}, true);
}
TEST(SimdSchurOperator, BitwiseDoubleW8) {
  check_schur_operator<double, 8>({4, 4, 4, 4}, true);
}
TEST(SimdSchurOperator, FallsBackOnUndecomposableGeometry) {
  check_schur_operator<double, 8>({2, 2, 2, 2}, false);
}

// --- reductions ------------------------------------------------------------

template <typename T, int W>
void check_reductions(const Coord& dims) {
  const LatticeGeometry geo(dims);
  auto vl = VectorLattice::make(geo, W);
  ASSERT_TRUE(vl.has_value());
  const auto vol = static_cast<std::size_t>(geo.volume());
  aligned_vector<WilsonSpinor<T>> x(vol), y(vol);
  fill_random(span(x), 41);
  fill_random(span(y), 43);
  aligned_vector<WilsonSpinor<Simd<T, W>>> vx(
      static_cast<std::size_t>(vl->total_sites())),
      vy(static_cast<std::size_t>(vl->total_sites()));
  pack_sites<T, W>(*vl, cspan(x), span(vx));
  pack_sites<T, W>(*vl, cspan(y), span(vy));

  // The packed reductions follow the canonical scalar-site order, so the
  // results are bit-identical doubles, not merely close.
  EXPECT_EQ(blas::norm2(cspan(x)), blas::norm2(cspan(vx), vl->gather()));
  const Cplxd ds = blas::dot(cspan(x), cspan(y));
  const Cplxd dv = blas::dot(cspan(vx), cspan(vy), vl->gather());
  EXPECT_EQ(ds.re, dv.re);
  EXPECT_EQ(ds.im, dv.im);
  EXPECT_EQ(blas::re_dot(cspan(x), cspan(y)),
            blas::re_dot(cspan(vx), cspan(vy), vl->gather()));
}

TEST(SimdBlas, ReductionsBitwiseFloatW4) {
  check_reductions<float, 4>({4, 4, 4, 4});
}
TEST(SimdBlas, ReductionsBitwiseFloatW8) {
  check_reductions<float, 8>({4, 4, 4, 4});
}
TEST(SimdBlas, ReductionsBitwiseDoubleW8) {
  check_reductions<double, 8>({8, 4, 4, 6});
}

}  // namespace
}  // namespace lqcd
