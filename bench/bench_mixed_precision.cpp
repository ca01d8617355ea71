// Experiment F3: mixed-precision speedup, measured. Double-precision CG
// vs float-inner defect-correction CG on the same systems: wall time,
// iteration overhead, final residual — the QUDA-style trade.
//
// --json <path> records per-kappa iteration counts and speedups;
// --quick shrinks the lattice and kappa sweep for CI smoke runs.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dirac/eo.hpp"
#include "dirac/normal.hpp"
#include "linalg/blas.hpp"
#include "solver/cg.hpp"
#include "solver/mixed_cg.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace lqcd;
  using namespace lqcd::bench;
  Cli cli(argc, argv);
  const std::string json_path = cli.get_string("json", "");
  const bool quick = cli.get_flag("quick");
  cli.finish();

  const LatticeGeometry geo(quick ? Coord{4, 4, 4, 8}
                                  : Coord{8, 8, 8, 8});
  const GaugeFieldD u = thermalized(geo, 5.9, 20, quick ? 6 : 8);
  GaugeFieldF uf(geo);
  convert_gauge(uf, u);
  FermionFieldD b(geo);
  fill_gaussian(b.span(), 21);
  const auto hv = static_cast<std::size_t>(geo.half_volume());

  std::printf("F3: mixed precision defect-correction CG vs pure double "
              "(%dx%dx%dx%d, beta=5.9, target 1e-10)\n",
              geo.dim(0), geo.dim(1), geo.dim(2), geo.dim(3));
  std::printf("%8s | %9s %9s | %9s %9s %7s | %8s %9s\n", "kappa",
              "dbl iter", "dbl[ms]", "mix iter", "mix[ms]", "cycles",
              "speedup", "iter ovh");

  const std::vector<double> kappas =
      quick ? std::vector<double>{0.118}
            : std::vector<double>{0.100, 0.110, 0.118, 0.124};
  std::string json_rows;
  for (const double kappa : kappas) {
    SchurWilsonOperator<double> sd(u, kappa);
    SchurWilsonOperator<float> sf(uf, kappa);
    NormalOperator<double> nd(sd);
    NormalOperator<float> nf(sf);

    aligned_vector<WilsonSpinorD> bhat(hv), bhat2(hv), xd(hv), xm(hv),
        tmp(hv);
    sd.prepare_rhs({bhat.data(), hv}, b.span());
    apply_dagger_g5<double>(sd, {bhat2.data(), hv}, {bhat.data(), hv},
                            {tmp.data(), hv});
    const std::span<const WilsonSpinorD> rhs(bhat2.data(), hv);

    SolverParams pd{.tol = 1e-10, .max_iterations = 40000};
    const SolverResult rd = cg_solve<double>(nd, {xd.data(), hv}, rhs, pd);

    MixedCgParams mp;
    mp.outer.tol = 1e-10;
    const SolverResult rm =
        mixed_cg_solve(nd, nf, {xm.data(), hv}, rhs, mp);

    const double speedup = rm.seconds > 0 ? rd.seconds / rm.seconds : 0.0;
    const double overhead =
        rd.iterations > 0
            ? static_cast<double>(rm.inner_iterations) / rd.iterations
            : 0.0;
    std::printf("%8.3f | %9d %9.2f | %9d %9.2f %7d | %7.2fx %8.2fx%s\n",
                kappa, rd.iterations, rd.seconds * 1e3,
                rm.inner_iterations, rm.seconds * 1e3, rm.outer_cycles,
                speedup, overhead,
                (rd.converged && rm.converged) ? "" : "  [!]");
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"kappa\": %.3f, \"double_iters\": %d, "
                  "\"mixed_inner_iters\": %d, \"outer_cycles\": %d, "
                  "\"speedup\": %.3f, \"converged\": %s}",
                  kappa, rd.iterations, rm.inner_iterations,
                  rm.outer_cycles, speedup,
                  (rd.converged && rm.converged) ? "true" : "false");
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += row;
  }

  if (!json_path.empty()) {
    std::ofstream js(json_path);
    js << "{\n"
       << "  \"schema\": \"lqcd.bench.mixed_precision/1\",\n"
       << "  \"experiment\": \"mixed-precision-cg\",\n"
       << "  \"lattice\": [" << geo.dim(0) << ", " << geo.dim(1) << ", "
       << geo.dim(2) << ", " << geo.dim(3) << "],\n"
       << "  \"kappas\": [\n" << json_rows << "\n  ]\n"
       << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf("\nShape: float inner solves run ~2x faster per iteration "
              "(half the memory traffic); defect correction pays a small "
              "iteration overhead (ratio slightly > 1) and still reaches "
              "the double-precision residual — net speedup ~1.5-2x, "
              "growing toward kappa_c where more work moves inside the "
              "cheap inner loop.\n");
  return 0;
}
