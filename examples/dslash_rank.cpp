// dslash_rank: one binary, two execution modes, identical bits.
//
// Standalone (no LQCD_TRANSPORT in the environment):
//   ./dslash_rank --L 8 --T 8 --np 4 --reps 3 [--schur] [--half]
// runs the virtual cluster — all --np ranks in this process — and
// prints the CRC-32 of the gathered result field.
//
// Under the launcher:
//   lqcd_launch -n 4 -- ./dslash_rank --L 8 --T 8 --np 4 --reps 3
// the same binary becomes one SPMD rank over the socket or
// shared-memory transport; rank 0 gathers and prints the same line.
// The two CRCs matching is the bit-identity acceptance check for the
// real transports, and CI diffs exactly that.
//
// The gauge configuration and source are built deterministically from
// the seed on every rank (site-keyed RNG), so no input scatter is
// needed; only halo planes cross the wire.

#include <cstdio>
#include <cstring>

#include "comm/dist_eo.hpp"
#include "comm/halo.hpp"
#include "comm/transport/rank_halo.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

using namespace lqcd;

namespace {

void fill_random(std::span<WilsonSpinorD> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
}

std::uint32_t field_crc(std::span<const WilsonSpinorD> f) {
  return crc32(f.data(), f.size() * sizeof(WilsonSpinorD));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int L = cli.get_int("L", 8);
  const int T = cli.get_int("T", 8);
  const int np = cli.get_int("np", 2);
  const int reps = cli.get_int("reps", 2);
  const double kappa = cli.get_double("kappa", 0.13);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 4242));
  const bool schur = cli.get_flag("schur");
  const bool half = cli.get_flag("half");
  cli.finish();
  const HaloPrecision prec =
      half ? HaloPrecision::kHalf : HaloPrecision::kFull;

  const LatticeGeometry geo({L, L, L, T});
  const ProcessGrid grid(choose_grid(geo.dims(), np));
  GaugeFieldD u(geo);
  u.set_random(SiteRngFactory(seed));
  const auto vol = static_cast<std::size_t>(geo.volume());
  const auto hv = static_cast<std::size_t>(geo.half_volume());

  aligned_vector<WilsonSpinorD> src(vol);
  fill_random({src.data(), vol}, seed + 1);

  const char* env = std::getenv("LQCD_TRANSPORT");
  if (env == nullptr) {
    // Virtual mode: every rank lives here.
    if (schur) {
      DistributedSchurWilsonOperator<double> op(u, kappa, grid);
      op.set_halo_precision(prec);
      aligned_vector<WilsonSpinorD> in(hv), out(hv);
      std::memcpy(in.data(), src.data() + hv, hv * sizeof(WilsonSpinorD));
      for (int k = 0; k < reps; ++k) {
        op.apply({out.data(), hv}, {in.data(), hv});
        std::swap(in, out);
      }
      std::printf("dslash_rank: mode=virtual np=%d schur=1 prec=%s "
                  "crc=0x%08x\n",
                  np, to_string(prec), field_crc({in.data(), hv}));
    } else {
      DistributedWilsonOperator<double> op(u, kappa, grid);
      op.set_halo_precision(prec);
      aligned_vector<WilsonSpinorD> in = src, out(vol);
      for (int k = 0; k < reps; ++k) {
        op.apply({out.data(), vol}, {in.data(), vol});
        std::swap(in, out);
      }
      std::printf("dslash_rank: mode=virtual np=%d schur=0 prec=%s "
                  "crc=0x%08x\n",
                  np, to_string(prec), field_crc({in.data(), vol}));
    }
    return 0;
  }

  // SPMD mode: this process is one rank of the grid.
  std::unique_ptr<transport::Transport> tp =
      transport::make_transport_from_env();
  LQCD_REQUIRE(tp->size() == np,
               "dslash_rank: --np must match lqcd_launch -n");
  if (schur) {
    RankSchurWilsonOperator<double> op(u, kappa, grid, *tp);
    op.set_halo_precision(prec);
    RankCluster<double>& cl = op.cluster();
    // Odd-parity source on the extended rank volume, zero elsewhere
    // (matches the virtual run's scatter_parity into zeroed storage).
    aligned_vector<WilsonSpinorD> odd_global(vol);
    std::memcpy(odd_global.data() + hv, src.data() + hv,
                hv * sizeof(WilsonSpinorD));
    auto in = cl.make_fermion();
    auto out = cl.make_fermion();
    cl.extract_local(in, {odd_global.data(), vol});
    for (int k = 0; k < reps; ++k) {
      op.apply(out, in);
      std::swap(in, out);
    }
    aligned_vector<WilsonSpinorD> full(tp->rank() == 0 ? vol : 0);
    cl.gather_to_root({full.data(), full.size()}, in);
    tp->barrier();
    if (tp->rank() == 0)
      std::printf("dslash_rank: mode=%s np=%d schur=1 prec=%s crc=0x%08x\n",
                  env, np, to_string(prec),
                  field_crc({full.data() + hv, hv}));
  } else {
    RankWilsonOperator<double> op(u, kappa, grid, *tp);
    op.set_halo_precision(prec);
    RankCluster<double>& cl = op.cluster();
    auto in = cl.make_fermion();
    auto out = cl.make_fermion();
    cl.extract_local(in, {src.data(), vol});
    for (int k = 0; k < reps; ++k) {
      op.apply(out, in);
      std::swap(in, out);
    }
    aligned_vector<WilsonSpinorD> full(tp->rank() == 0 ? vol : 0);
    cl.gather_to_root({full.data(), full.size()}, in);
    tp->barrier();
    if (tp->rank() == 0)
      std::printf("dslash_rank: mode=%s np=%d schur=0 prec=%s crc=0x%08x\n",
                  env, np, to_string(prec),
                  field_crc({full.data(), vol}));
  }
  return 0;
}
