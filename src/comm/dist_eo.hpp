#pragma once
// Even-odd (Schur) preconditioned Wilson operator on global fields
// through the virtual cluster — the distributed counterpart of
// SchurWilsonOperator (dirac/eo.hpp). An adapter over the SPMD
// RankSchurWilsonOperator (comm/transport/rank_halo.hpp), which holds
// the schedule and the per-site arithmetic: scatter the half-volume
// input, run the rank operator's plan on every rank in lockstep, gather.
// Each half-volume sweep (D_eo or D_oe) runs split-phase and overlapped
// — begin on the source field, hop over the target parity's interior
// sites, finish, hop over its surface sites — and iterates are
// bit-identical to the single-domain operator: solvers preconditioned
// through it converge in exactly the same number of iterations.

#include "comm/halo.hpp"
#include "linalg/blas.hpp"

namespace lqcd {

/// Distributed Schur complement of the plain Wilson operator (A = 1):
/// Mhat = 1 - kappa^2 D_oe D_eo on the odd checkerboard.
template <typename T>
class DistributedSchurWilsonOperator final
    : public DistributedHopOperator<T, RankSchurWilsonOperator<T>> {
 public:
  DistributedSchurWilsonOperator(const GaugeField<T>& u, double kappa,
                                 const ProcessGrid& grid,
                                 TimeBoundary bc = TimeBoundary::Antiperiodic)
      : DistributedHopOperator<T, RankSchurWilsonOperator<T>>(u, kappa, grid,
                                                              bc),
        psi_(this->cluster_.make_fermion()),
        res_(this->cluster_.make_fermion()),
        baux_(this->cluster_.make_fermion()) {}

  /// Mhat x on the odd checkerboard (half-volume spans).
  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in) const override {
    LQCD_REQUIRE(out.size() == static_cast<std::size_t>(vector_size()) &&
                     in.size() == out.size(),
                 "Schur apply span sizes");
    this->cluster_.scatter_parity(psi_, in, 1);
    this->run([&](std::size_t r) {
      return this->ops_[r].apply_plan(res_[r], psi_[r]);
    });
    this->cluster_.gather_parity(out, res_, 1);
  }

  /// bhat_o = b_o + kappa D_oe b_e (b is a full-volume field).
  void prepare_rhs(std::span<WilsonSpinor<T>> bhat,
                   std::span<const WilsonSpinor<T>> b_full) const {
    this->cluster_.scatter(baux_, b_full);
    this->run([&](std::size_t r) {
      return this->ops_[r].prepare_rhs_plan(res_[r], baux_[r]);
    });
    this->cluster_.gather_parity(bhat, res_, 1);
  }

  /// x_full: odd block <- x_odd; even block <- b_e + kappa D_eo x_o.
  void reconstruct(std::span<WilsonSpinor<T>> x_full,
                   std::span<const WilsonSpinor<T>> x_odd,
                   std::span<const WilsonSpinor<T>> b_full) const {
    const auto hv = static_cast<std::size_t>(vector_size());
    blas::copy(x_full.subspan(hv), x_odd);
    this->cluster_.scatter_parity(psi_, x_odd, 1);
    this->cluster_.scatter(baux_, b_full);
    this->run([&](std::size_t r) {
      return this->ops_[r].reconstruct_plan(res_[r], psi_[r], baux_[r]);
    });
    this->cluster_.gather_parity(x_full.first(hv), res_, 0);
  }

  [[nodiscard]] std::int64_t vector_size() const override {
    return this->cluster_.global_geometry().half_volume();
  }
  [[nodiscard]] double flops_per_apply() const override {
    // Two half-volume dslashes + combine (same as SchurWilsonOperator).
    return static_cast<double>(this->cluster_.global_geometry().volume()) *
               kDslashFlopsPerSite +
           static_cast<double>(vector_size()) * 48.0;
  }

 private:
  mutable std::vector<typename VirtualCluster<T>::RankFermion> psi_;
  mutable std::vector<typename VirtualCluster<T>::RankFermion> res_;
  mutable std::vector<typename VirtualCluster<T>::RankFermion> baux_;
};

}  // namespace lqcd
