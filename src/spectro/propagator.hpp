#pragma once
// Quark propagators: the 12 solutions M S = delta(spin, color) that feed
// every hadron contraction.
//
// Column (s0, c0) of the propagator is the fermion field
// S(x)_{(s,c),(s0,c0)}. Solves go through the shared solver factory
// (solver/factory.hpp); the default method is the even-odd Schur CG
// pipeline validated in tests/test_solver.cpp. One FullSolver is built
// per call and solves the 12 columns one at a time, each right after
// its source is made — for the `mg` method that amortizes the adaptive
// setup across the whole propagator (the `mg.setup.reuses` counter
// climbs by 11; tests/test_mg.cpp asserts it).

#include <array>
#include <functional>
#include <memory>

#include "dirac/wilson.hpp"
#include "gauge/gauge_field.hpp"
#include "lattice/field.hpp"
#include "solver/factory.hpp"
#include "solver/solver.hpp"
#include "spectro/source.hpp"

namespace lqcd {

class Propagator {
 public:
  explicit Propagator(const LatticeGeometry& geo);

  [[nodiscard]] const LatticeGeometry& geometry() const { return *geo_; }

  FermionFieldD& column(int s0, int c0) {
    return *columns_[static_cast<std::size_t>(s0 * Nc + c0)];
  }
  [[nodiscard]] const FermionFieldD& column(int s0, int c0) const {
    return *columns_[static_cast<std::size_t>(s0 * Nc + c0)];
  }

  /// Matrix element S(x)_{(s,c),(s0,c0)}.
  [[nodiscard]] Cplxd element(std::int64_t cb, int s, int c, int s0,
                              int c0) const {
    return column(s0, c0)[cb].s[s].c[c];
  }

 private:
  const LatticeGeometry* geo_;
  std::array<std::unique_ptr<FermionFieldD>, Ns * Nc> columns_;
};

struct PropagatorParams {
  double kappa = 0.12;
  double csw = 0.0;  ///< 0 = plain Wilson, > 0 = clover
  TimeBoundary bc = TimeBoundary::Antiperiodic;
  SolverParams solver{.tol = 1e-10, .max_iterations = 20000};
  /// Solve pipeline for the 12 columns. All kinds share `solver` as the
  /// outer stopping criterion; `mg` additionally uses `mg_params` and
  /// builds its hierarchy once for all columns.
  SolverKind method = SolverKind::EoCg;
  mg::MgParams mg_params{};
};

struct PropagatorStats {
  int total_iterations = 0;
  double seconds = 0.0;
  double worst_residual = 0.0;
  bool converged = true;
};

/// Solve all 12 columns for sources produced by `make_source(b, s0, c0)`.
/// The solver is built first; then each column, in (s0, c0) order, gets
/// one make_source call followed by its solve.
PropagatorStats compute_propagator(
    Propagator& out, const GaugeFieldD& u, const PropagatorParams& params,
    const std::function<void(FermionFieldD&, int, int)>& make_source);

/// Solve all 12 columns of the source described by `spec` (the shared
/// path used by run_spectroscopy, the campaign service and the benches).
PropagatorStats compute_propagator(Propagator& out, const GaugeFieldD& u,
                                   const PropagatorParams& params,
                                   const SourceSpec& spec);

/// Point-source convenience wrapper.
PropagatorStats compute_point_propagator(Propagator& out,
                                         const GaugeFieldD& u,
                                         const PropagatorParams& params,
                                         const Coord& point);

}  // namespace lqcd
