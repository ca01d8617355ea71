#pragma once
// Shared solver factory: one place that maps a solver name to a fully
// configured solve pipeline for M x = b on the full lattice volume.
//
// Before this existed, hadron_spectrum, dynamical_qcd and bench_solvers
// each hand-rolled the same per-solver blocks (build Schur operator,
// prepare rhs, pick Krylov method, reconstruct). The factory owns that
// plumbing: every kind produces a `FullSolver` whose solve() takes a
// full-volume right-hand side and returns a full-volume solution,
// whatever preconditioning happens inside.
//
// Kinds:
//   eo_cg     CG on the normal even-odd Schur system (the default)
//   mixed_cg  mixed-precision defect-correction CG on the same system
//   bicgstab  BiCGStab on the full operator
//   gcr       restarted GCR on the full operator
//   sap_gcr   GCR right-preconditioned by SAP              (Wilson only)
//   mg        GCR right-preconditioned by the MG V-cycle   (Wilson only)
//
// Multi-column work (the 12 propagator columns, a campaign's tasks)
// builds one FullSolver and calls solve() once per column.
//
// The MG kind pays an adaptive setup at construction and reuses it for
// every subsequent solve — construct once per gauge configuration.

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "dirac/clover.hpp"
#include "dirac/eo.hpp"
#include "dirac/normal.hpp"
#include "linalg/blas.hpp"
#include "mg/mg.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/gcr.hpp"
#include "solver/mixed_cg.hpp"
#include "solver/sap.hpp"

namespace lqcd {

enum class SolverKind {
  EoCg,
  MixedCg,
  BiCgStab,
  Gcr,
  SapGcr,
  Mg,
  /// Not a kind: the retired multi-RHS name, kept as a spelling of EoCg
  /// only because perfbench/ still assigns it. Goes with the next change
  /// to the benchmark.
  BlockCg = EoCg,
};

[[nodiscard]] inline std::string_view to_string(SolverKind k) {
  switch (k) {
    case SolverKind::EoCg: return "eo_cg";
    case SolverKind::MixedCg: return "mixed_cg";
    case SolverKind::BiCgStab: return "bicgstab";
    case SolverKind::Gcr: return "gcr";
    case SolverKind::SapGcr: return "sap_gcr";
    case SolverKind::Mg: return "mg";
  }
  return "?";
}

/// Parse a CLI solver name (e.g. "--solver=mg"). Throws on unknown names
/// with the list of valid ones.
[[nodiscard]] inline SolverKind parse_solver_kind(std::string_view name) {
  if (name == "eo_cg" || name == "cg") return SolverKind::EoCg;
  if (name == "mixed_cg" || name == "mixed") return SolverKind::MixedCg;
  if (name == "bicgstab") return SolverKind::BiCgStab;
  if (name == "gcr") return SolverKind::Gcr;
  if (name == "sap_gcr" || name == "sap") return SolverKind::SapGcr;
  if (name == "mg") return SolverKind::Mg;
  throw Error(
      "unknown solver '" + std::string(name) +
      "' (valid: eo_cg, mixed_cg, bicgstab, gcr, sap_gcr, mg)");
}

struct SolverConfig {
  double kappa = 0.12;
  double csw = 0.0;  ///< 0 = plain Wilson; > 0 = clover (Krylov kinds only)
  TimeBoundary bc = TimeBoundary::Antiperiodic;
  SolverParams base{.tol = 1e-9, .max_iterations = 20000};
  int gcr_restart = 16;             ///< gcr / sap_gcr / mg outer restart
  SapParams sap{};                  ///< sap_gcr preconditioner
  MixedCgParams mixed{};            ///< mixed_cg (outer overridden by base)
  mg::MgParams mg{};                ///< mg hierarchy parameters
};

/// A configured solve pipeline for M x = b on the full volume. `x` is
/// used as the initial guess and overwritten with the solution.
class FullSolver {
 public:
  virtual ~FullSolver() = default;
  virtual SolverResult solve(std::span<WilsonSpinorD> x,
                             std::span<const WilsonSpinorD> b) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

namespace detail {

/// CG on the normal even-odd Schur system: prepare -> solve -> reconstruct.
/// Template over the Schur operator so plain Wilson and clover share code.
template <typename SchurOp>
class EoCgSolver final : public FullSolver {
 public:
  template <typename... Args>
  explicit EoCgSolver(const SolverParams& params, Args&&... args)
      : shat_(std::forward<Args>(args)...),
        nhat_(shat_),
        params_(params),
        hv_(static_cast<std::size_t>(shat_.geometry().half_volume())),
        bhat_(hv_), bhat2_(hv_), xo_(hv_), tmp_(hv_) {}

  SolverResult solve(std::span<WilsonSpinorD> x,
                     std::span<const WilsonSpinorD> b) override {
    shat_.prepare_rhs({bhat_.data(), hv_}, b);
    apply_dagger_g5<double>(shat_, {bhat2_.data(), hv_},
                            {bhat_.data(), hv_}, {tmp_.data(), hv_});
    blas::zero(std::span<WilsonSpinorD>(xo_.data(), hv_));
    const SolverResult res = cg_solve<double>(
        nhat_, {xo_.data(), hv_},
        std::span<const WilsonSpinorD>(bhat2_.data(), hv_), params_);
    shat_.reconstruct(x, {xo_.data(), hv_}, b);
    return res;
  }
  [[nodiscard]] std::string_view name() const override { return "eo_cg"; }

 private:
  SchurOp shat_;
  NormalOperator<double> nhat_;
  SolverParams params_;
  std::size_t hv_;
  aligned_vector<WilsonSpinorD> bhat_, bhat2_, xo_, tmp_;
};

/// Mixed-precision CG on the normal even-odd Schur system.
class EoMixedCgSolver final : public FullSolver {
 public:
  EoMixedCgSolver(const GaugeFieldD& u, const SolverConfig& cfg)
      : uf_(to_float(u)),
        shat_d_(u, cfg.kappa, cfg.bc),
        shat_f_(uf_, cfg.kappa, cfg.bc),
        nhat_d_(shat_d_),
        nhat_f_(shat_f_),
        params_(cfg.mixed),
        hv_(static_cast<std::size_t>(u.geometry().half_volume())),
        bhat_(hv_), bhat2_(hv_), xo_(hv_), tmp_(hv_) {
    params_.outer = cfg.base;
  }

  SolverResult solve(std::span<WilsonSpinorD> x,
                     std::span<const WilsonSpinorD> b) override {
    shat_d_.prepare_rhs({bhat_.data(), hv_}, b);
    apply_dagger_g5<double>(shat_d_, {bhat2_.data(), hv_},
                            {bhat_.data(), hv_}, {tmp_.data(), hv_});
    blas::zero(std::span<WilsonSpinorD>(xo_.data(), hv_));
    const SolverResult res = mixed_cg_solve(
        nhat_d_, nhat_f_, {xo_.data(), hv_},
        std::span<const WilsonSpinorD>(bhat2_.data(), hv_), params_);
    shat_d_.reconstruct(x, {xo_.data(), hv_}, b);
    return res;
  }
  [[nodiscard]] std::string_view name() const override { return "mixed_cg"; }

 private:
  static GaugeField<float> to_float(const GaugeFieldD& u) {
    GaugeField<float> uf(u.geometry());
    convert_gauge(uf, u);
    return uf;
  }

  GaugeField<float> uf_;
  SchurWilsonOperator<double> shat_d_;
  SchurWilsonOperator<float> shat_f_;
  NormalOperator<double> nhat_d_;
  NormalOperator<float> nhat_f_;
  MixedCgParams params_;
  std::size_t hv_;
  aligned_vector<WilsonSpinorD> bhat_, bhat2_, xo_, tmp_;
};

/// Krylov solve directly on the full operator (BiCGStab or GCR).
template <typename Op>
class FullKrylovSolver final : public FullSolver {
 public:
  enum class Method { BiCgStab, Gcr, SapGcr };

  template <typename... Args>
  FullKrylovSolver(Method method, const SolverConfig& cfg, Args&&... args)
      : m_(std::forward<Args>(args)...), method_(method) {
    gcr_.base = cfg.base;
    gcr_.restart_length = cfg.gcr_restart;
    if (method == Method::SapGcr) {
      if constexpr (std::is_same_v<Op, WilsonOperator<double>>) {
        sap_ = std::make_unique<SapPreconditioner<double>>(m_, cfg.sap);
      } else {
        LQCD_REQUIRE(false, "sap_gcr supports plain Wilson only");
      }
    }
  }

  SolverResult solve(std::span<WilsonSpinorD> x,
                     std::span<const WilsonSpinorD> b) override {
    if (method_ == Method::BiCgStab)
      return bicgstab_solve<double>(m_, x, b, gcr_.base);
    const SolverResult res = gcr_solve<double>(m_, x, b, gcr_, sap_.get());
    record_solve(name(), res);
    return res;
  }
  [[nodiscard]] std::string_view name() const override {
    switch (method_) {
      case Method::BiCgStab: return "bicgstab";
      case Method::Gcr: return "gcr";
      case Method::SapGcr: return "sap_gcr";
    }
    return "?";
  }

 private:
  Op m_;
  Method method_;
  GcrParams gcr_;
  std::unique_ptr<Preconditioner<double>> sap_;
};

/// MG-preconditioned GCR; the hierarchy is built once in the constructor.
class MgFullSolver final : public FullSolver {
 public:
  MgFullSolver(const GaugeFieldD& u, const SolverConfig& cfg)
      : mg_(u, cfg.kappa, cfg.bc, cfg.mg,
            GcrParams{cfg.base, cfg.gcr_restart}) {}

  SolverResult solve(std::span<WilsonSpinorD> x,
                     std::span<const WilsonSpinorD> b) override {
    return mg_.solve(x, b);
  }
  [[nodiscard]] std::string_view name() const override { return "mg"; }

  [[nodiscard]] const mg::MgSolver<double>& impl() const { return mg_; }

 private:
  mg::MgSolver<double> mg_;
};

}  // namespace detail

/// Build a configured solver against one gauge configuration. The gauge
/// field is copied into the operators, so `u` need not outlive the
/// returned solver.
[[nodiscard]] inline std::unique_ptr<FullSolver> make_solver(
    const GaugeFieldD& u, SolverKind kind, const SolverConfig& cfg) {
  using FK = detail::FullKrylovSolver<WilsonOperator<double>>;
  using FKClover = detail::FullKrylovSolver<CloverWilsonOperator<double>>;
  const bool clover = cfg.csw > 0.0;
  const CloverParams cp{.kappa = cfg.kappa, .csw = cfg.csw, .bc = cfg.bc};
  switch (kind) {
    case SolverKind::EoCg:
      if (clover)
        return std::make_unique<
            detail::EoCgSolver<SchurCloverOperator<double>>>(cfg.base, u, u,
                                                             cp);
      return std::make_unique<detail::EoCgSolver<SchurWilsonOperator<double>>>(
          cfg.base, u, cfg.kappa, cfg.bc);
    case SolverKind::MixedCg:
      LQCD_REQUIRE(!clover, "mixed_cg kind supports plain Wilson only");
      return std::make_unique<detail::EoMixedCgSolver>(u, cfg);
    case SolverKind::BiCgStab:
      if (clover)
        return std::make_unique<FKClover>(FKClover::Method::BiCgStab, cfg, u,
                                          u, cp);
      return std::make_unique<FK>(FK::Method::BiCgStab, cfg, u, cfg.kappa,
                                  cfg.bc);
    case SolverKind::Gcr:
      if (clover)
        return std::make_unique<FKClover>(FKClover::Method::Gcr, cfg, u, u,
                                          cp);
      return std::make_unique<FK>(FK::Method::Gcr, cfg, u, cfg.kappa, cfg.bc);
    case SolverKind::SapGcr:
      LQCD_REQUIRE(!clover, "sap_gcr kind supports plain Wilson only");
      return std::make_unique<FK>(FK::Method::SapGcr, cfg, u, cfg.kappa,
                                  cfg.bc);
    case SolverKind::Mg:
      LQCD_REQUIRE(!clover, "mg kind supports plain Wilson only");
      return std::make_unique<detail::MgFullSolver>(u, cfg);
  }
  throw Error("unreachable solver kind");
}

}  // namespace lqcd
