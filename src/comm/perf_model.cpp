#include "comm/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "dirac/simd_wilson.hpp"
#include "dirac/wilson.hpp"
#include "gauge/gauge_field.hpp"
#include "lattice/field.hpp"
#include "lattice/vector_lattice.hpp"
#include "linalg/simd.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace lqcd {

namespace {
std::int64_t volume_of(const Coord& c) {
  std::int64_t v = 1;
  for (int mu = 0; mu < Nd; ++mu) v *= c[mu];
  return v;
}

// Sustained table-driven CRC-32 throughput (GB/s) used to price message
// framing; conservative for a byte-at-a-time kernel on current cores.
constexpr double kCrcGBs = 2.0;
}  // namespace

DslashCost model_dslash(const Coord& local, const Coord& grid,
                        const MachineModel& m, const PerfModelOptions& opt) {
  DslashCost c;
  const double vloc = static_cast<double>(volume_of(local));
  const double prec = static_cast<double>(opt.precision_bytes);

  c.flops = 1320.0 * vloc;
  // Per site: 8 SU(3) links (18 reals each) + 8 neighbor spinors +
  // 1 diagonal read + 1 write (24 reals each).
  c.mem_bytes = vloc * (8.0 * 18.0 + 10.0 * 24.0) * prec;

  const double peak = m.peak_gflops(opt.precision_bytes) * 1e9 *
                      m.compute_efficiency;
  const double bw = m.mem_bw_gbs * 1e9 * m.compute_efficiency;
  c.t_compute =
      opt.calibration * std::max(c.flops / peak, c.mem_bytes / bw);

  // Halos: one face pair per decomposed direction; a projected halo
  // carries 12 reals per site, a full spinor 24. The wire may run a
  // lower precision than the math (int16 block float): each real then
  // costs halo_precision_bytes and each face site pays a 4-byte scale —
  // the β-term side of the precision ladder.
  const double halo_reals = opt.half_spinor_comm ? 12.0 : 24.0;
  const double wire_prec = opt.halo_precision_bytes > 0
                               ? static_cast<double>(opt.halo_precision_bytes)
                               : prec;
  const double scale_overhead = wire_prec < prec ? 4.0 : 0.0;
  int active = 0;
  double max_face_bytes = 0.0;
  for (int mu = 0; mu < Nd; ++mu) {
    if (grid[mu] <= 1) continue;
    ++active;
    const double face_sites = vloc / static_cast<double>(local[mu]);
    const double bytes =
        face_sites * (halo_reals * wire_prec + scale_overhead);
    c.comm_bytes += 2.0 * bytes;  // forward and backward faces
    max_face_bytes = std::max(max_face_bytes, bytes);
    c.messages += 2;
  }
  if (active > 0) {
    const int concurrency = std::min(m.links_per_node, 2 * active);
    const double link_bw =
        m.link_bw_gbs * 1e9 * static_cast<double>(concurrency);
    c.t_comm = m.link_latency_us * 1e-6 + c.comm_bytes / link_bw;

    // Resilience surcharge: CRC framing is a streaming pass over the
    // payload on both ends of the link; detected faults cost the expected
    // (truncated-geometric) number of retransmits, each paying latency,
    // bandwidth and doubling backoff.
    double t_res = 0.0;
    if (opt.checksummed_halo)
      t_res += 2.0 * c.comm_bytes / (kCrcGBs * 1e9);
    const double p =
        std::clamp(opt.message_fault_prob, 0.0, 0.999999);
    if (p > 0.0 && opt.max_retries > 0) {
      // E[extra sends] for success prob (1-p) truncated at max_retries.
      double expected_retx = 0.0;
      double expected_backoff_us = 0.0;
      double p_reach = 1.0;  // probability attempt k is needed
      for (int k = 1; k <= opt.max_retries; ++k) {
        p_reach *= p;
        expected_retx += p_reach;
        expected_backoff_us +=
            p_reach * opt.retry_backoff_us * static_cast<double>(1 << (k - 1));
      }
      const double avg_msg_bytes =
          c.comm_bytes / static_cast<double>(c.messages);
      t_res += static_cast<double>(c.messages) * expected_retx *
                   (m.link_latency_us * 1e-6 + avg_msg_bytes / link_bw) +
               static_cast<double>(c.messages) * expected_backoff_us * 1e-6;
      if (opt.checksummed_halo)
        t_res += expected_retx * 2.0 * c.comm_bytes / (kCrcGBs * 1e9);
    }
    c.t_resilience = t_res;
    c.t_comm += t_res;
  }

  // Overlap: only the interior window can hide comm. Sites within one
  // step of a face wait for the unpack (HaloLattice's interior/surface
  // partition — all 4 directions keep ghosts, decomposed or not), so the
  // hideable compute is t_compute * interior_fraction.
  double interior = 1.0;
  for (int mu = 0; mu < Nd; ++mu)
    interior *= static_cast<double>(std::max(0, local[mu] - 2)) /
                static_cast<double>(local[mu]);
  c.interior_fraction = interior;
  c.t_sequential = c.t_compute + c.t_comm;
  c.t_hidden = std::min(c.t_comm * opt.overlap, c.t_compute * interior);
  c.hidden_fraction = c.t_comm > 0.0 ? c.t_hidden / c.t_comm : 0.0;
  c.t_total = c.t_sequential - c.t_hidden;
  return c;
}

namespace {

/// Add `n` applications of `c` into `sum`.
void add_dslash(DslashCost& sum, const DslashCost& c, double n) {
  sum.flops += n * c.flops;
  sum.mem_bytes += n * c.mem_bytes;
  sum.comm_bytes += n * c.comm_bytes;
  sum.messages += static_cast<int>(n) * c.messages;
  sum.t_compute += n * c.t_compute;
  sum.t_comm += n * c.t_comm;
  sum.t_resilience += n * c.t_resilience;
  sum.t_sequential += n * c.t_sequential;
  sum.t_hidden += n * c.t_hidden;
  sum.t_total += n * c.t_total;
}

/// One SAP boundary update after a color sweep: the residual gains the
/// hops of the block correction that cross block faces. Per direction a
/// site has its forward (and one its backward) neighbour in the next
/// block once per `block[mu]` sites; one color's correction covers half
/// the sites. Its compute is that share of `global`'s; its halo traffic
/// is `global`'s, because the correction's ghost faces still move.
DslashCost sap_boundary_update(const DslashCost& global, const Coord& local,
                               const Coord& grid, const Coord& block,
                               const PerfModelOptions& opt) {
  double crossing = 0.0;
  for (int mu = 0; mu < Nd; ++mu)
    if (block[mu] < local[mu] * grid[mu])
      crossing += 2.0 / static_cast<double>(block[mu]);
  const double share = 0.5 * crossing / (2.0 * Nd);

  DslashCost c = global;
  c.flops *= share;
  c.mem_bytes *= share;
  c.t_compute *= share;
  c.t_sequential = c.t_compute + c.t_comm;
  c.t_hidden =
      std::min(c.t_comm * opt.overlap, c.t_compute * c.interior_fraction);
  c.hidden_fraction = c.t_comm > 0.0 ? c.t_hidden / c.t_comm : 0.0;
  c.t_total = c.t_sequential - c.t_hidden;
  return c;
}

/// hidden_fraction, t_iter and comm_fraction from the dslash, BLAS and
/// reduction parts.
void finish_iteration(IterationCost& it) {
  it.dslash.hidden_fraction =
      it.dslash.t_comm > 0.0 ? it.dslash.t_hidden / it.dslash.t_comm : 0.0;
  it.t_iter = it.dslash.t_total + it.t_linalg + it.t_allreduce;
  const double comm =
      (it.dslash.t_total - it.dslash.t_compute) + it.t_allreduce;
  it.comm_fraction = it.t_iter > 0.0 ? std::max(0.0, comm) / it.t_iter : 0.0;
}

}  // namespace

IterationCost model_cg_iteration(const Coord& local, const Coord& grid,
                                 int nodes, const MachineModel& m,
                                 const PerfModelOptions& opt) {
  IterationCost it;
  // Normal Schur operator: 4 half-volume dslashes = 2 full dslash
  // applications worth of flops/bytes/halos.
  const DslashCost one = model_dslash(local, grid, m, opt);
  add_dslash(it.dslash, one, 2.0);
  it.dslash.interior_fraction = one.interior_fraction;

  // Level-1 ops on the half volume: ~5 axpy/dot passes, 24 reals/site,
  // 2 accesses each. Strictly memory bound.
  const double vhalf = static_cast<double>(volume_of(local)) / 2.0;
  const double prec = static_cast<double>(opt.precision_bytes);
  const double bytes = 5.0 * 2.0 * 24.0 * prec * vhalf;
  it.t_linalg = opt.calibration * bytes /
                (m.mem_bw_gbs * 1e9 * m.compute_efficiency);

  // 2 allreduces over a log2 combining tree.
  const double stages = nodes > 1 ? std::ceil(std::log2(nodes)) : 0.0;
  it.t_allreduce = 2.0 * m.allreduce_latency_us * 1e-6 * stages;
  finish_iteration(it);
  return it;
}

IterationCost model_sap_gcr_iteration(const Coord& local, const Coord& grid,
                                      int nodes, const MachineModel& m,
                                      const PerfModelOptions& opt,
                                      int cycles, int mr_iters,
                                      const Coord& block) {
  IterationCost it;
  // Block solves: communication-free local dslash sweeps.
  DslashCost local_only = model_dslash(local, Coord{1, 1, 1, 1}, m, opt);
  const double local_sweeps =
      static_cast<double>(cycles) * (2.0 + static_cast<double>(mr_iters));
  add_dslash(it.dslash, local_only, local_sweeps);
  // The outer GCR's operator apply, and one boundary update after every
  // color sweep but the last.
  DslashCost global = model_dslash(local, grid, m, opt);
  const DslashCost boundary =
      sap_boundary_update(global, local, grid, block, opt);
  add_dslash(it.dslash, global, 1.0);
  add_dslash(it.dslash, boundary, 2.0 * cycles - 1.0);
  it.dslash.interior_fraction = global.interior_fraction;

  const double vloc = static_cast<double>(volume_of(local));
  const double prec = static_cast<double>(opt.precision_bytes);
  const double bytes = 8.0 * 2.0 * 24.0 * prec * vloc;
  it.t_linalg = opt.calibration * bytes /
                (m.mem_bw_gbs * 1e9 * m.compute_efficiency);

  const double stages = nodes > 1 ? std::ceil(std::log2(nodes)) : 0.0;
  // GCR needs ~3 reductions per iteration (orthogonalization + norms).
  it.t_allreduce = 3.0 * m.allreduce_latency_us * 1e-6 * stages;
  finish_iteration(it);
  return it;
}

namespace {
std::vector<ScalingPoint> scaling_curve(
    const std::vector<int>& nodes, const MachineModel& m,
    const PerfModelOptions& opt,
    const std::function<bool(int, Coord&, Coord&)>& layout) {
  std::vector<ScalingPoint> out;
  for (const int n : nodes) {
    Coord grid{}, local{};
    if (!layout(n, grid, local)) continue;
    ScalingPoint pt;
    pt.nodes = n;
    pt.grid = grid;
    pt.local = local;
    pt.cost = model_cg_iteration(local, grid, n, m, opt);
    pt.sustained_tflops = pt.cost.dslash.flops * n /
                          pt.cost.t_iter * 1e-12;
    out.push_back(pt);
  }
  if (!out.empty()) {
    // Efficiency normalized to the first (smallest) point's
    // flops-per-node-second.
    const double base = out.front().sustained_tflops /
                        static_cast<double>(out.front().nodes);
    for (auto& pt : out)
      pt.efficiency =
          (pt.sustained_tflops / static_cast<double>(pt.nodes)) / base;
  }
  return out;
}
}  // namespace

MgIterationCost model_mg_vcycle(const Coord& local, const Coord& grid,
                                int nodes, const MachineModel& m,
                                const PerfModelOptions& opt,
                                const MgModelParams& mg) {
  MgIterationCost out;
  // Fine level. model_sap_gcr_iteration prices one outer GCR iteration
  // wrapped around one smoother apply; the V-cycle runs the smoother
  // twice (pre + post), so double the cycles. That also prices the
  // pre-smoother's last boundary update, whose residual feeds the coarse
  // correction. Then add the one residual-refresh dslash the V-cycle does
  // between correction and post-smoothing.
  out.fine = model_sap_gcr_iteration(local, grid, nodes, m, opt,
                                     2 * mg.smoother_cycles,
                                     mg.smoother_mr_iters, mg.smoother_block);
  add_dslash(out.fine.dslash, model_dslash(local, grid, m, opt), 1.0);
  finish_iteration(out.fine);

  // Coarse level: each aggregate becomes one site carrying 2*nvec complex
  // dof; the Galerkin stencil is 9 dense blocks per site.
  Coord coarse_local{};
  for (int mu = 0; mu < Nd; ++mu)
    coarse_local[mu] = std::max(1, local[mu] / mg.block[mu]);
  const double vc = static_cast<double>(volume_of(coarse_local));
  const double ncols = 2.0 * static_cast<double>(mg.nvec);
  const double iters = static_cast<double>(mg.coarse_iterations);

  out.coarse_flops = iters * vc * 9.0 * ncols * ncols * 8.0;
  const double peak = m.peak_gflops(opt.precision_bytes) * 1e9 *
                      m.compute_efficiency;
  out.t_coarse_compute = opt.calibration * out.coarse_flops / peak;

  // Coarse halos: a face site ships ncols complex numbers. The payloads
  // are so small that per-message latency dominates — which is exactly
  // why the coarse level sets the method's strong-scaling floor.
  const double prec = static_cast<double>(opt.precision_bytes);
  const double wire_prec = opt.halo_precision_bytes > 0
                               ? static_cast<double>(opt.halo_precision_bytes)
                               : prec;
  const double scale_overhead = wire_prec < prec ? 4.0 : 0.0;
  double bytes_per_apply = 0.0;
  int msgs_per_apply = 0;
  int active = 0;
  for (int mu = 0; mu < Nd; ++mu) {
    if (grid[mu] <= 1) continue;
    ++active;
    const double face_sites = vc / static_cast<double>(coarse_local[mu]);
    bytes_per_apply +=
        2.0 * face_sites * (ncols * 2.0 * wire_prec + scale_overhead);
    msgs_per_apply += 2;
  }
  out.coarse_comm_bytes = iters * bytes_per_apply;
  out.coarse_messages = mg.coarse_iterations * msgs_per_apply;
  if (active > 0) {
    const int concurrency = std::min(m.links_per_node, 2 * active);
    const double link_bw =
        m.link_bw_gbs * 1e9 * static_cast<double>(concurrency);
    out.t_coarse_comm =
        iters * (m.link_latency_us * 1e-6 + bytes_per_apply / link_bw);
  }
  // Two reductions (orthogonalization + norm) per coarse GCR iteration.
  const double stages = nodes > 1 ? std::ceil(std::log2(nodes)) : 0.0;
  out.t_coarse_allreduce =
      2.0 * iters * m.allreduce_latency_us * 1e-6 * stages;

  out.t_coarse =
      out.t_coarse_compute + out.t_coarse_comm + out.t_coarse_allreduce;
  out.t_vcycle = out.fine.t_iter + out.t_coarse;
  out.coarse_fraction =
      out.t_vcycle > 0.0 ? out.t_coarse / out.t_vcycle : 0.0;
  return out;
}

std::vector<ScalingPoint> strong_scaling(const Coord& global,
                                         const MachineModel& m,
                                         const PerfModelOptions& opt,
                                         const std::vector<int>& nodes) {
  return scaling_curve(nodes, m, opt,
                       [&](int n, Coord& grid, Coord& local) {
                         if (!can_decompose(global, n)) return false;
                         grid = choose_grid(global, n);
                         const ProcessGrid pg(grid);
                         local = pg.local_dims(global);
                         return true;
                       });
}

std::vector<ScalingPoint> weak_scaling(const Coord& local,
                                       const MachineModel& m,
                                       const PerfModelOptions& opt,
                                       const std::vector<int>& nodes) {
  return scaling_curve(nodes, m, opt,
                       [&](int n, Coord& grid, Coord& loc) {
                         // Build the grid by factorizing n over directions
                         // round-robin (weak scaling keeps local fixed).
                         grid = {1, 1, 1, 1};
                         int rem = n;
                         int mu = 3;
                         while (rem > 1) {
                           int p = 0;
                           for (int cand : {2, 3, 5, 7})
                             if (rem % cand == 0) {
                               p = cand;
                               break;
                             }
                           if (p == 0) return false;
                           grid[mu] *= p;
                           rem /= p;
                           mu = (mu + 3) % Nd;  // cycle t,z,y,x
                         }
                         loc = local;
                         return true;
                       });
}

namespace {

/// Seconds per full-lattice sweep of the scalar reference dslash.
template <typename T>
double time_scalar_calibration(const LatticeGeometry& geo, int reps) {
  GaugeFieldD ud(geo);
  ud.set_random(SiteRngFactory(77));
  GaugeField<T> u(geo);
  convert_gauge(u, ud);
  FermionField<T> in(geo), out(geo);
  for (auto& s : in.span()) s.s[0].c[0] = Cplx<T>(T(1));
  WallTimer t;
  for (int i = 0; i < reps; ++i)
    dslash_full(out.span(),
                std::span<const WilsonSpinor<T>>(in.span().data(),
                                                 in.span().size()),
                u);
  return t.seconds() / reps;
}

/// Seconds per full-lattice sweep of the lane-packed dslash at width W,
/// charging the ghost permutation fill each sweep exactly as a production
/// sweep pays it. Negative when the geometry does not decompose at W.
template <typename T, int W>
double time_vector_calibration(const LatticeGeometry& geo, int reps) {
  const auto vl = VectorLattice::make(geo, W);
  if (!vl) return -1.0;
  GaugeFieldD ud(geo);
  ud.set_random(SiteRngFactory(77));
  GaugeField<T> u(geo);
  convert_gauge(u, ud);
  const VectorGaugeField<T, W> vg(*vl, u);
  FermionField<T> in(geo);
  for (auto& s : in.span()) s.s[0].c[0] = Cplx<T>(T(1));
  const auto total = static_cast<std::size_t>(vl->total_sites());
  aligned_vector<WilsonSpinor<Simd<T, W>>> vin(total), vout(total);
  std::span<WilsonSpinor<Simd<T, W>>> vin_s(vin.data(), vin.size());
  pack_sites<T, W>(*vl,
                   std::span<const WilsonSpinor<T>>(in.span().data(),
                                                    in.span().size()),
                   vin_s);
  WallTimer t;
  for (int i = 0; i < reps; ++i) {
    vl->fill_ghosts(vin_s);
    simd_dslash_full<T, W>(
        {vout.data(), vout.size()},
        std::span<const WilsonSpinor<Simd<T, W>>>(vin.data(), vin.size()),
        vg);
  }
  return t.seconds() / reps;
}

template <typename T>
double time_calibration(const LatticeGeometry& geo, int reps,
                        int simd_width) {
  double measured = -1.0;
  switch (simd_width) {
    case 2: measured = time_vector_calibration<T, 2>(geo, reps); break;
    case 4: measured = time_vector_calibration<T, 4>(geo, reps); break;
    case 8: measured = time_vector_calibration<T, 8>(geo, reps); break;
    default: break;
  }
  if (measured < 0.0) measured = time_scalar_calibration<T>(geo, reps);
  return measured;
}

}  // namespace

double calibrate_node(const MachineModel& m, int precision_bytes,
                      int simd_width) {
  // Time the real dslash kernel on an 8^4 local volume, single domain.
  const LatticeGeometry geo({8, 8, 8, 8});
  const int reps = 10;

  const double measured =
      precision_bytes >= 8
          ? time_calibration<double>(geo, reps, simd_width)
          : time_calibration<float>(geo, reps, simd_width);

  PerfModelOptions opt;
  opt.precision_bytes = precision_bytes;
  opt.calibration = 1.0;
  const DslashCost modeled =
      model_dslash({8, 8, 8, 8}, {1, 1, 1, 1}, m, opt);
  LQCD_ASSERT(modeled.t_compute > 0.0, "model produced zero time");
  return measured / modeled.t_compute;
}

}  // namespace lqcd
