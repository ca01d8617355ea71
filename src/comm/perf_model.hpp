#pragma once
// Performance model for distributed lattice solvers.
//
// Substitution for the paper's cluster-scale evaluation (see DESIGN.md):
// the per-node kernel cost comes from a roofline (max of compute-bound and
// memory-bound time), halo communication from an alpha-beta torus model,
// and the CG allreduce from a log2(N) combining tree. The functional
// virtual cluster (halo.hpp) validates the *structure* (message counts,
// bytes) the model charges for; local kernels can be timed with
// calibrate_node() so the model's absolute scale matches this machine.

#include <vector>

#include "comm/machine.hpp"
#include "comm/process_grid.hpp"

namespace lqcd {

/// Cost breakdown of one dslash (full lattice worth of work) on one node.
struct DslashCost {
  double flops = 0.0;       ///< floating-point ops per node
  double mem_bytes = 0.0;   ///< DRAM traffic per node
  double comm_bytes = 0.0;  ///< halo bytes sent per node
  int messages = 0;         ///< messages per node per application
  double t_compute = 0.0;   ///< seconds (roofline)
  double t_comm = 0.0;      ///< seconds (alpha-beta, incl. resilience)
  double t_resilience = 0.0;  ///< CRC + expected-retransmit share of t_comm
  /// Share of local sites >= 1 from every face — the overlap window the
  /// functional path (HaloLattice's interior/surface partition) computes
  /// while the exchange is in flight. Caps how much comm can hide.
  double interior_fraction = 1.0;
  double t_sequential = 0.0;  ///< un-overlapped serial sum compute + comm
  double t_hidden = 0.0;      ///< comm hidden behind the interior window
  double hidden_fraction = 0.0;  ///< t_hidden / t_comm (0 when no comm)
  double t_total = 0.0;     ///< with compute/comm overlap applied
};

struct PerfModelOptions {
  int precision_bytes = 8;      ///< 8 double, 4 float, 2 "half"
  /// Wire bytes per real on halo links; 0 follows precision_bytes.
  /// Set to 2 to price the int16 block-float halo
  /// (HaloPrecision::kHalf): each face site then also pays a 4-byte
  /// per-site scale, matching detail::kHalfSiteBytes exactly.
  int halo_precision_bytes = 0;
  bool half_spinor_comm = true;  ///< send projected 2-spin halos
  double overlap = 0.8;  ///< fraction of comm hidden behind compute
  /// Multiplies the modeled kernel time; set from calibrate_node() to pin
  /// the model to measured single-node throughput. 1.0 = pure roofline.
  double calibration = 1.0;
  // --- resilience (matches VirtualCluster's hardened transport) --------
  /// CRC-32-frame every halo message: charges one checksum pass per byte
  /// on each side of the link (sender frame + receiver verify).
  bool checksummed_halo = false;
  /// Per-message probability of a detected fault (corruption or drop);
  /// charges the expected geometric number of retransmits, each paying
  /// latency + bandwidth + exponential backoff, truncated at max_retries.
  double message_fault_prob = 0.0;
  int max_retries = 3;
  double retry_backoff_us = 50.0;
};

/// Model one Wilson dslash over local volume `local`, with halos exchanged
/// in every direction where `grid` > 1.
DslashCost model_dslash(const Coord& local, const Coord& grid,
                        const MachineModel& m, const PerfModelOptions& opt);

/// One even-odd preconditioned CG iteration: the dslash work of one full
/// application of the normal Schur operator (4 half-volume dslashes),
/// level-1 field updates, and 2 global reductions.
struct IterationCost {
  DslashCost dslash;        ///< aggregated dslash part
  double t_linalg = 0.0;    ///< axpy/dot memory-bound time
  double t_allreduce = 0.0; ///< 2 reductions per iteration
  double t_iter = 0.0;
  double comm_fraction = 0.0;  ///< (halo + allreduce) share of t_iter
};
IterationCost model_cg_iteration(const Coord& local, const Coord& grid,
                                 int nodes, const MachineModel& m,
                                 const PerfModelOptions& opt);

/// One SAP-preconditioned GCR iteration: `cycles * (mr_iters + 2)` local
/// (communication-free) block dslash sweeps, one global dslash, the
/// `2 * cycles - 1` boundary updates of SAP's block-local residual (the
/// share of a dslash's hops that cross faces of `block`, with a full
/// dslash's halo traffic), and 3 reductions. Captures the DD trade: more
/// local flops, less halo.
IterationCost model_sap_gcr_iteration(const Coord& local, const Coord& grid,
                                      int nodes, const MachineModel& m,
                                      const PerfModelOptions& opt,
                                      int cycles, int mr_iters,
                                      const Coord& block = {2, 2, 2, 2});

/// Multigrid geometry/cost knobs the model needs (mirrors mg::MgParams
/// without pulling the mg subsystem into the comm layer).
struct MgModelParams {
  Coord block{2, 2, 2, 2};   ///< aggregate extents (coarse = local/block)
  int nvec = 8;              ///< near-null vectors; 2*nvec coarse dof/site
  int smoother_cycles = 2;   ///< SAP cycles per smoother apply
  int smoother_mr_iters = 4; ///< MR steps per block solve
  Coord smoother_block{2, 2, 2, 2};  ///< SAP block extents
  int coarse_iterations = 16;  ///< coarse GCR iterations per V-cycle
};

/// One MG-preconditioned GCR outer iteration: a full V-cycle (2 smoother
/// applies, the pre-smoother handing back its residual, + 1 fine residual
/// refresh) plus the coarse-level solve. The coarse grid is tiny, so its
/// halos are latency-dominated — the model separates t_coarse_comm to
/// make that visible: at scale the coarse level is the latency floor of
/// the whole method.
struct MgIterationCost {
  IterationCost fine;             ///< smoother + fine-grid work
  double coarse_flops = 0.0;      ///< coarse stencil flops per node
  double coarse_comm_bytes = 0.0; ///< coarse halo bytes per node
  int coarse_messages = 0;        ///< coarse halo messages per node
  double t_coarse_compute = 0.0;
  double t_coarse_comm = 0.0;     ///< latency-dominated at scale
  double t_coarse_allreduce = 0.0;  ///< coarse GCR reductions
  double t_coarse = 0.0;
  double t_vcycle = 0.0;          ///< fine + coarse total
  double coarse_fraction = 0.0;   ///< coarse share of t_vcycle
};
MgIterationCost model_mg_vcycle(const Coord& local, const Coord& grid,
                                int nodes, const MachineModel& m,
                                const PerfModelOptions& opt,
                                const MgModelParams& mg);

/// One point of a scaling curve.
struct ScalingPoint {
  int nodes = 0;
  Coord grid{};
  Coord local{};
  IterationCost cost;
  double sustained_tflops = 0.0;  ///< whole-machine sustained TFLOP/s
  double efficiency = 1.0;        ///< parallel efficiency vs first point
};

/// Strong scaling: fixed global lattice, growing node counts. Node counts
/// that do not factor onto the lattice are skipped.
std::vector<ScalingPoint> strong_scaling(const Coord& global,
                                         const MachineModel& m,
                                         const PerfModelOptions& opt,
                                         const std::vector<int>& nodes);

/// Weak scaling: fixed local volume per node.
std::vector<ScalingPoint> weak_scaling(const Coord& local,
                                       const MachineModel& m,
                                       const PerfModelOptions& opt,
                                       const std::vector<int>& nodes);

/// Measure this machine's actual dslash time per site (seconds) for the
/// given precision on a small local volume, and return the ratio
/// measured / modeled as a calibration factor for PerfModelOptions.
///
/// With simd_width > 0 the measurement runs the lane-packed dslash
/// (dirac/simd_wilson.hpp) at that width — ghost fill included, since the
/// scaling tables charge for a full sweep — so the model's per-node
/// throughput reflects the vectorized kernel. Falls back to the scalar
/// reference kernel when the width is unsupported (non-power-of-two, or
/// the calibration volume does not decompose). simd_width = 0 keeps the
/// scalar kernel, which preserves the historical calibration.
double calibrate_node(const MachineModel& m, int precision_bytes,
                      int simd_width = 0);

}  // namespace lqcd
