// Experiment T6: mass-independent solves. MG-preconditioned GCR vs
// mixed-precision eo-CG over a quark-mass sweep on a thermalized quenched
// configuration. Two claims are measured:
//
//  1. Amortized cost: after the one-time adaptive setup, MG solves to the
//     same tolerance with a small, nearly mass-independent number of
//     outer iterations, while CG's iteration count (and with it the
//     fine-grid Dirac work) grows toward kappa_c. The comparison unit is
//     fine-grid Dirac applies per lattice site — Delta(dslash.site_applies
//     + dslash.block_site_applies) / volume — so SAP's block sweeps are
//     priced at the same rate as full-grid applies.
//  2. At-scale shape: model_mg_vcycle prices the V-cycle's coarse level
//     on the machine presets. The coarse grid is tiny, so its halo
//     traffic is latency-dominated — the printed coarse_fraction is the
//     strong-scaling floor the paper's solver section worries about.
//
// Seconds stand beside the applies: the MG and CG solve times, and their
// ratio with MG's setup amortized over the 12 columns of a propagator.
//
// --json <path> records the sweep (bench/BENCH_mg.json holds a reference
// run); --quick runs a 4^4 single-kappa smoke.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/machine.hpp"
#include "comm/perf_model.hpp"
#include "solver/factory.hpp"
#include "util/cli.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace lqcd;

struct SweepRow {
  double kappa = 0.0;
  int mg_iterations = 0;
  double mg_fine_applies = 0.0;  // per site, setup excluded
  double mg_setup_applies = 0.0;  // per site, one-time
  double mg_seconds = 0.0;
  double mg_setup_seconds = 0.0;
  double coarse_iters_per_cycle = 0.0;
  int cg_iterations = 0;
  double cg_fine_applies = 0.0;  // per site
  double cg_seconds = 0.0;
  bool converged = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lqcd;
  Cli cli(argc, argv);
  const bool quick = cli.get_flag("quick");
  const int L = cli.get_int("L", quick ? 4 : 8);
  const double tol = cli.get_double("tol", 1e-8);
  const int nvec = cli.get_int("nvec", quick ? 4 : 32);
  const int setup_iters = cli.get_int("setup-iters", quick ? 1 : 4);
  const int cycles = cli.get_int("cycles", 1);
  const int sap_block = cli.get_int("sap-block", 2);
  const int sap_mr = cli.get_int("sap-mr", 4);
  const int coarse_iters = cli.get_int("coarse-iters", quick ? 16 : 64);
  const double coarse_tol = cli.get_double("coarse-tol", 1e-1);
  const std::string kappa_list = cli.get_string(
      "kappas", quick ? "0.150" : "0.150,0.160,0.168,0.174");
  const std::string json_path = cli.get_string("json", "");
  cli.finish();

  telemetry::set_enabled(true);
  const LatticeGeometry geo({L, L, L, L});
  const double volume = static_cast<double>(geo.volume());
  const GaugeFieldD u = bench::thermalized(geo, 5.9, 10);
  FermionFieldD b(geo), x(geo);
  bench::fill_gaussian(b.span(), 11);

  std::printf("T6: MG-GCR vs mixed-precision eo-CG, thermalized %d^4 "
              "(beta=5.9, tol=%.0e)\n", L, tol);
  std::printf("Unit: fine-grid Dirac applies per site (full-grid + SAP "
              "block sweeps), setup excluded.\n");
  std::printf("time ratio: CG t / (MG t + setup / 12 columns).\n\n");
  std::printf("%7s | %35s | %21s | %15s\n", "kappa",
              "MG-GCR (setup amortized)", "mixed eo-CG", "CG/MG ratio");
  std::printf("%7s | %6s %8s %8s %10s | %6s %8s %5s | %7s %7s\n", "",
              "iters", "applies", "t[ms]", "setup[ms]", "iters", "applies",
              "t[ms]", "applies", "time");

  // Comma-separated kappa sweep, reaching toward kappa_c for this
  // (beta=5.9, lightly thermalized) ensemble.
  std::vector<double> kappas;
  {
    std::string list = kappa_list;
    for (std::size_t pos = 0; pos < list.size();) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      kappas.push_back(std::stod(list.substr(pos, next - pos)));
      pos = next + 1;
    }
  }
  std::vector<SweepRow> rows;
  for (const double kappa : kappas) {
    SweepRow row;
    row.kappa = kappa;

    SolverConfig cfg;
    cfg.kappa = kappa;
    cfg.base = {.tol = tol, .max_iterations = 20000};
    cfg.mg.block = {2, 2, 2, 2};
    cfg.mg.nvec = nvec;
    cfg.mg.setup_iters = setup_iters;
    cfg.mg.smoother = {{sap_block, sap_block, sap_block, sap_block}, cycles,
                       sap_mr};
    cfg.mg.coarse.tol = coarse_tol;
    cfg.mg.coarse.max_iterations = coarse_iters;

    // MG: the setup (relaxation + Galerkin assembly) is paid once per
    // configuration; meter it separately from the solve.
    std::int64_t mark = bench::fine_applies_mark();
    WallTimer setup_timer;
    const auto mg = make_solver(u, SolverKind::Mg, cfg);
    row.mg_setup_seconds = setup_timer.seconds();
    row.mg_setup_applies = bench::fine_applies_since(mark, volume);

    mark = bench::fine_applies_mark();
    const std::int64_t cyc0 = telemetry::counter("mg.vcycle.count").value();
    const std::int64_t cit0 =
        telemetry::counter("mg.coarse.solve_iterations").value();
    blas::zero(x.span());
    const SolverResult rmg = mg->solve(x.span(), b.span());
    row.mg_fine_applies = bench::fine_applies_since(mark, volume);
    row.mg_iterations = rmg.iterations;
    row.mg_seconds = rmg.seconds;
    const std::int64_t dcyc =
        telemetry::counter("mg.vcycle.count").value() - cyc0;
    row.coarse_iters_per_cycle =
        dcyc > 0 ? static_cast<double>(
                       telemetry::counter("mg.coarse.solve_iterations")
                           .value() -
                       cit0) /
                       static_cast<double>(dcyc)
                 : 0.0;

    // Mixed-precision eo-CG on the same system and rhs.
    const auto cg = make_solver(u, SolverKind::MixedCg, cfg);
    mark = bench::fine_applies_mark();
    blas::zero(x.span());
    const SolverResult rcg = cg->solve(x.span(), b.span());
    row.cg_fine_applies = bench::fine_applies_since(mark, volume);
    row.cg_iterations = rcg.iterations;
    row.cg_seconds = rcg.seconds;
    row.converged = rmg.converged && rcg.converged;

    const double ratio =
        row.mg_fine_applies > 0.0 ? row.cg_fine_applies / row.mg_fine_applies
                                  : 0.0;
    const double time_ratio =
        row.cg_seconds / (row.mg_seconds + row.mg_setup_seconds / 12.0);
    std::printf("%7.3f | %6d %8.0f %8.0f %10.1f | %6d %8.0f %5.0f | %6.1fx "
                "%6.2fx  (%.0f coarse it/cycle)%s\n",
                kappa, row.mg_iterations, row.mg_fine_applies,
                row.mg_seconds * 1e3, row.mg_setup_seconds * 1e3,
                row.cg_iterations, row.cg_fine_applies, row.cg_seconds * 1e3,
                ratio, time_ratio, row.coarse_iters_per_cycle,
                row.converged ? "" : "  [!] unconverged");
    rows.push_back(row);
  }

  std::printf("\nShape check: MG outer iterations stay ~flat across the "
              "sweep while CG applies grow\ntoward kappa_c; at the "
              "lightest mass MG must win by >= 3x in fine-grid applies\n"
              "(the acceptance bar; the one-time setup amortizes over the "
              "12 columns of a propagator).\n");

  // At-scale coarse-level pricing: the part a single-node measurement
  // cannot see. 48^3x96 global lattice, strong-scaled.
  bench::rule("modeled V-cycle at scale (48^3 x 96 global, double)");
  MgModelParams mg_model;
  mg_model.nvec = nvec;
  mg_model.smoother_cycles = cycles;
  mg_model.smoother_mr_iters = sap_mr;
  mg_model.smoother_block = {sap_block, sap_block, sap_block, sap_block};
  mg_model.coarse_iterations = 16;  // ~the measured mid-sweep cost
  std::printf("%-16s %6s %12s %12s %10s %8s\n", "machine", "nodes",
              "t_vcycle[us]", "t_coarse[us]", "coarse[%]", "msgs");
  for (const char* name : {"bgq", "k", "cluster"}) {
    const MachineModel m = machine_by_name(name);
    for (const int nodes : {512, 4096}) {
      Coord grid{}, local{};
      // Factor nodes = 2^k over the dimensions, largest extent first.
      Coord global{48, 48, 48, 96};
      for (int mu = 0; mu < Nd; ++mu) grid[mu] = 1;
      int rem = nodes;
      while (rem > 1) {
        int best = 0;
        for (int mu = 1; mu < Nd; ++mu)
          if (global[mu] / grid[mu] > global[best] / grid[best]) best = mu;
        grid[best] *= 2;
        rem /= 2;
      }
      bool ok = true;
      for (int mu = 0; mu < Nd; ++mu) {
        if (global[mu] % grid[mu] != 0) ok = false;
        local[mu] = global[mu] / grid[mu];
        if (local[mu] % mg_model.block[mu] != 0) ok = false;
      }
      if (!ok) continue;
      const MgIterationCost c =
          model_mg_vcycle(local, grid, nodes, m, PerfModelOptions{}, mg_model);
      std::printf("%-16s %6d %12.1f %12.1f %10.1f %8d\n", name, nodes,
                  c.t_vcycle * 1e6, c.t_coarse * 1e6,
                  c.coarse_fraction * 100.0, c.coarse_messages);
    }
  }
  std::printf("(coarse[%%] is the coarse level's share of the V-cycle: "
              "dense ncols^2 blocks plus\nlatency-bound tiny halos -- the "
              "strong-scaling floor of the method.)\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"T6\",\n  \"lattice\": " << L
        << ",\n  \"tol\": " << tol << ",\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      out << "    {\"kappa\": " << r.kappa
          << ", \"mg_iterations\": " << r.mg_iterations
          << ", \"mg_fine_applies\": " << r.mg_fine_applies
          << ", \"mg_setup_applies\": " << r.mg_setup_applies
          << ", \"mg_setup_seconds\": " << r.mg_setup_seconds
          << ", \"mg_seconds\": " << r.mg_seconds
          << ", \"cg_iterations\": " << r.cg_iterations
          << ", \"cg_fine_applies\": " << r.cg_fine_applies
          << ", \"cg_seconds\": " << r.cg_seconds
          << ", \"converged\": " << (r.converged ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
