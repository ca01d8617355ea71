#pragma once
// The SPMD halo: one rank of a domain-decomposed lattice, the Wilson and
// Schur operators every rank runs, and the 1-process virtual cluster
// built from N of them. This is the only implementation of the exchange
// and of the distributed operators; every execution mode runs it.
//
// RankCluster owns exactly ONE rank — the one its Transport endpoint was
// constructed with — and does the whole exchange for it: pack the 8
// boundary planes (detail::walk_face order), post them as tagged frames,
// receive, verify and retransmit (in the transport base class), unpack,
// roll back after a failure, and book the comm.halo.* telemetry. The
// other ranks live in other processes (socket or shm under lqcd_launch),
// in sibling threads over the in-process hub (the tests' SPMD harness),
// or in the same VirtualCluster.
//
// RankWilsonOperator / RankSchurWilsonOperator hold the only copy of the
// overlapped schedule and the per-site stores. An operator application
// is a HopPlan: one or two hop sweeps, each run as begin / interior /
// finish / surface. run_hop_plans() drives plans for any number of ranks
// from one thread, one fork-join region per phase: a lone SPMD rank, or
// all N ranks of a VirtualCluster in lockstep (every rank's begin, then
// every rank's finish — one thread blocking in rank 0's finish would
// wait forever for faces rank 1 has not posted).
//
// VirtualCluster is N RankClusters over one make_inprocess_group(N) plus
// scatter/gather and the summed CommStats. DistributedWilsonOperator and
// DistributedSchurWilsonOperator (comm/dist_eo.hpp) are LinearOperator
// adapters: scatter, run the rank operators' plans on all N ranks,
// gather. One code path is what makes N-process runs bit-identical to
// the 1-process virtual run — ghost bytes, operator outputs and solver
// iterates — the property the launcher smoke drills assert with CRCs.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/halo.hpp"
#include "comm/process_grid.hpp"
#include "comm/transport/transport.hpp"
#include "dirac/operator.hpp"
#include "dirac/wilson.hpp"
#include "linalg/gamma.hpp"
#include "parallel/thread_pool.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace lqcd {

/// One rank of a lattice decomposed over a process grid. All
/// communication goes through the Transport endpoint passed in (not
/// owned); rank identity and world size come from it.
template <typename T>
class RankCluster {
 public:
  RankCluster(const LatticeGeometry& global, const ProcessGrid& grid,
              transport::Transport& tp)
      : global_(&global),
        grid_(grid),
        tp_(&tp),
        local_dims_(grid.local_dims(global.dims())),
        halo_(local_dims_) {
    LQCD_REQUIRE(tp.size() == grid.size(),
                 "rank cluster: transport world size != process grid size");
    const Coord rc = grid_.coords_of(tp.rank());
    for (int mu = 0; mu < Nd; ++mu) origin_[mu] = rc[mu] * local_dims_[mu];
  }

  [[nodiscard]] const LatticeGeometry& global_geometry() const {
    return *global_;
  }
  [[nodiscard]] const ProcessGrid& grid() const { return grid_; }
  [[nodiscard]] const HaloLattice& halo() const { return halo_; }
  [[nodiscard]] transport::Transport& transport() const { return *tp_; }
  [[nodiscard]] int rank() const { return tp_->rank(); }
  [[nodiscard]] int ranks() const { return tp_->size(); }
  [[nodiscard]] const Coord& origin() const { return origin_; }
  /// Checkerboard parity of the origin: a rank-local site's global
  /// parity is its local parity XOR this.
  [[nodiscard]] int origin_parity() const {
    return static_cast<int>(
        (origin_[0] + origin_[1] + origin_[2] + origin_[3]) & 1);
  }
  /// This rank's counters. `exchanges` doubles as the exchange epoch,
  /// which keys the frame tags and the fault schedule: every rank of a
  /// grid must agree on it (reset it on all of them, or none).
  [[nodiscard]] CommStats& stats() const { return stats_; }

  /// Enable/disable the hardened transport (CRC framing + retransmit).
  void set_resilience(const ResilienceConfig& rc) {
    tp_->set_resilience(rc);
  }
  /// Attach a fault injector (not owned; nullptr detaches). The injector
  /// perturbs frames in transit; with checksums enabled the exchange
  /// detects and retransmits, without them corruption flows through
  /// silently — exactly the trade bench_resilience quantifies.
  void set_fault_injector(FaultInjector* fi) {
    tp_->set_fault_injector(fi);
  }

  /// Wire precision for fermion halo faces (gauge faces are always
  /// full). Takes effect at the next exchange_begin(); an in-flight
  /// exchange keeps the precision it was begun with. Collective: every
  /// rank must set the same precision.
  void set_halo_precision(HaloPrecision p) {
    LQCD_REQUIRE(!exchange_in_flight(),
                 "set_halo_precision: exchange in flight");
    halo_precision_ = p;
  }
  [[nodiscard]] HaloPrecision halo_precision() const {
    return halo_precision_;
  }

  /// Rank-local fermion / gauge storage on the extended (haloed) volume.
  using RankFermion = aligned_vector<WilsonSpinor<T>>;
  using RankGauge = aligned_vector<LinkSite<T>>;

  [[nodiscard]] RankFermion make_fermion() const {
    return RankFermion(static_cast<std::size_t>(halo_.extended_volume()));
  }

  /// Global coordinate of a rank-local coordinate (periodic wrap).
  [[nodiscard]] Coord global_coords(const Coord& xl) const {
    Coord xg{};
    for (int mu = 0; mu < Nd; ++mu)
      xg[mu] = (origin_[mu] + xl[mu] + global_->dim(mu)) % global_->dim(mu);
    return xg;
  }

  /// body(e, cb) for each site this rank owns, in lexicographic local
  /// order: e is its extended index, cb its global checkerboard index.
  template <typename Body>
  void for_each_site(Body&& body) const {
    for (std::int64_t i = 0; i < halo_.interior_volume(); ++i) {
      const Coord xl = halo_.interior_coords(i);
      body(static_cast<std::size_t>(halo_.ext_index(xl)),
           static_cast<std::size_t>(global_->cb_index(global_coords(xl))));
    }
  }

  /// Copy this rank's interior out of a full global field (every rank
  /// holds the global source — configs and point sources are built
  /// deterministically from a seed on all ranks, so no scatter traffic).
  void extract_local(RankFermion& dst,
                     std::span<const WilsonSpinor<T>> src) const {
    LQCD_REQUIRE(src.size() == static_cast<std::size_t>(global_->volume()),
                 "extract_local: global field size");
    for_each_site([&](std::size_t e, std::size_t cb) { dst[e] = src[cb]; });
  }

  /// Assemble the global field at root from every rank's interior
  /// (lexicographic pack order, rank-ascending placement: deterministic
  /// bytes). Non-root ranks contribute and leave `dst` untouched; `dst`
  /// may be empty on non-root.
  void gather_to_root(std::span<WilsonSpinor<T>> dst,
                      const RankFermion& src, int root = 0) const {
    std::vector<std::byte> mine(
        static_cast<std::size_t>(halo_.interior_volume()) *
        sizeof(WilsonSpinor<T>));
    std::size_t k = 0;
    for_each_site([&](std::size_t e, std::size_t) {
      std::memcpy(mine.data() + k++ * sizeof(WilsonSpinor<T>), &src[e],
                  sizeof(WilsonSpinor<T>));
    });
    std::vector<std::vector<std::byte>> parts = tp_->gather(root, mine);
    if (rank() != root) return;
    LQCD_REQUIRE(dst.size() == static_cast<std::size_t>(global_->volume()),
                 "gather_to_root: global field size");
    for (int r = 0; r < ranks(); ++r) {
      const auto& part = parts[static_cast<std::size_t>(r)];
      LQCD_REQUIRE(part.size() == mine.size(),
                   "gather_to_root: rank part size");
      const Coord rc = grid_.coords_of(r);
      Coord ro{};
      for (int mu = 0; mu < Nd; ++mu) ro[mu] = rc[mu] * local_dims_[mu];
      for (std::int64_t i = 0; i < halo_.interior_volume(); ++i) {
        const Coord xl = halo_.interior_coords(i);
        Coord xg{};
        for (int mu = 0; mu < Nd; ++mu)
          xg[mu] = (ro[mu] + xl[mu]) % global_->dim(mu);
        std::memcpy(&dst[static_cast<std::size_t>(global_->cb_index(xg))],
                    part.data() + static_cast<std::size_t>(i) *
                                      sizeof(WilsonSpinor<T>),
                    sizeof(WilsonSpinor<T>));
      }
    }
  }

  /// This rank's links from the (replicated) global field, ghosts not
  /// yet filled.
  [[nodiscard]] RankGauge extract_gauge(const GaugeField<T>& u) const {
    RankGauge out(static_cast<std::size_t>(halo_.extended_volume()));
    for_each_site([&](std::size_t e, std::size_t cb) {
      out[e] = u.site(static_cast<std::int64_t>(cb));
    });
    return out;
  }

  /// extract_gauge() plus one blocking halo exchange for the ghost links
  /// (the one-time setup exchange a production code runs after loading
  /// a configuration). Collective.
  [[nodiscard]] RankGauge scatter_gauge(const GaugeField<T>& u) const {
    RankGauge out = extract_gauge(u);
    exchange(out);
    return out;
  }

  /// Blocking halo exchange: the composition of exchange_begin() and
  /// exchange_finish(). Collective.
  template <typename SiteT>
  void exchange(std::vector<SiteT, AlignedAllocator<SiteT>>& f) const {
    exchange_begin(f, /*split=*/false);
    exchange_finish(f);
  }

  /// Phase 1 of the split exchange: pack this rank's 8 boundary planes
  /// (at the current halo precision for spinors) and post them as frames
  /// tagged (epoch, mu, dir) through the endpoint, where fault injection
  /// and CRC framing act. After this call the boundary planes of `f` may
  /// not be modified until exchange_finish(); other sites are free to be
  /// read and written. `split` marks an exchange driven through the
  /// public begin/finish pair (comm.halo.overlap.split_exchanges); the
  /// blocking compositions pass false. A failed begin is rolled back
  /// before the error propagates.
  template <typename SiteT>
  void exchange_begin(std::vector<SiteT, AlignedAllocator<SiteT>>& f,
                      bool split = true) const {
    LQCD_REQUIRE(!exchange_in_flight(),
                 "halo exchange_begin: an exchange is already in flight "
                 "(double begin)");
    const auto epoch = static_cast<std::uint64_t>(stats_.exchanges);
    const CommStats before = stats_;
    const int r = rank();
    try {
      if (FaultInjector* const fi = tp_->fault_injector(); fi != nullptr) {
        if (fi->should_kill(epoch, r)) {
          fi->record_kill();
          throw TransientError("halo exchange: rank " + std::to_string(r) +
                               " died at epoch " + std::to_string(epoch));
        }
        const double stall = fi->straggle_us(epoch, r);
        if (stall > 0.0) {
          stats_.straggler_events += 1;
          stats_.modeled_delay_us += stall;
        }
      }
      std::vector<std::byte> buf;
      for (int mu = 0; mu < Nd; ++mu) {
        for (int dir = -1; dir <= 1; dir += 2) {
          // Our plane at x[mu] = 0 (dir=+1) or l-1 (dir=-1) fills the
          // (mu, dir) ghost of the rank one step the *other* way.
          const int dst = grid_.neighbor(r, mu, -dir);
          const int src_coord = dir > 0 ? 0 : local_dims_[mu] - 1;
          detail::pack_face_prec(buf, f, halo_, mu, src_coord,
                                 halo_precision_);
          tp_->send(dst, transport::make_halo_tag(epoch, mu, dir), buf);
        }
      }
    } catch (...) {
      abort_exchange();
      throw;
    }
    harvest_wire();
    pending_ = {&f, sizeof(SiteT), epoch, split, halo_precision_, before};
  }

  /// Phase 2: receive, verify, retransmit on detected faults, and unpack
  /// into the ghost frame. Must follow an exchange_begin() on the same
  /// field; a misuse throws without disturbing the exchange in flight, a
  /// failed receive rolls the exchange back before propagating.
  template <typename SiteT>
  void exchange_finish(std::vector<SiteT, AlignedAllocator<SiteT>>& f) const {
    require_pending(f);
    const Pending p = pending_;
    const int r = rank();
    try {
      std::vector<std::byte> buf;
      for (int mu = 0; mu < Nd; ++mu) {
        for (int dir = -1; dir <= 1; dir += 2) {
          const int src = grid_.neighbor(r, mu, dir);
          tp_->recv(src, transport::make_halo_tag(p.epoch, mu, dir), buf);
          const int ghost_coord = dir > 0 ? local_dims_[mu] : -1;
          detail::unpack_face_prec(f, buf, halo_, mu, ghost_coord,
                                   p.precision);
        }
      }
    } catch (...) {
      abort_exchange();
      throw;
    }
    harvest_wire();
    pending_ = {};
    stats_.exchanges += 1;
    stats_.full_equiv_bytes +=
        detail::face_payload_bytes<SiteT>(halo_, HaloPrecision::kFull);
    if constexpr (detail::is_spinor_site_v<SiteT>) {
      if (p.precision == HaloPrecision::kHalf)
        stats_.compressed_frames += 2 * Nd;
    }
    book_exchange(p);
  }

  /// True between exchange_begin() and exchange_finish().
  [[nodiscard]] bool exchange_in_flight() const noexcept {
    return pending_.field != nullptr;
  }

  /// The misuse guards of exchange_finish(f), with no side effects:
  /// throws unless an exchange of this very field is in flight.
  template <typename SiteT>
  void require_pending(
      const std::vector<SiteT, AlignedAllocator<SiteT>>& f) const {
    LQCD_REQUIRE(exchange_in_flight(),
                 "halo exchange_finish without a matching exchange_begin");
    LQCD_REQUIRE(pending_.field == static_cast<const void*>(&f),
                 "halo exchange_finish: field does not match "
                 "exchange_begin");
    LQCD_REQUIRE(pending_.site_bytes == sizeof(SiteT),
                 "halo exchange_finish: site type does not match "
                 "exchange_begin");
  }

  /// Roll back a failed or abandoned exchange: discard undelivered
  /// frames (the epoch — and so every tag — is reused on retry, and
  /// stale frames must not satisfy the retried receives), keep the wire
  /// counters, leave nothing in flight. A caller running several ranks
  /// calls it on every rank once any of them failed.
  void abort_exchange() const {
    tp_->drain();
    harvest_wire();
    pending_ = {};
  }

 private:
  /// Split-exchange bookkeeping, begin to finish.
  struct Pending {
    const void* field = nullptr;  ///< identity guard; nullptr when idle
    std::size_t site_bytes = 0;   ///< site-type guard
    std::uint64_t epoch = 0;
    bool split = false;
    /// Finish unpacks with the codec begin packed with, even if the
    /// precision knob moved in between.
    HaloPrecision precision = HaloPrecision::kFull;
    CommStats before;  ///< telemetry delta base
  };

  /// Fold the endpoint's wire-counter delta into stats_.
  void harvest_wire() const {
    detail::merge_wire_delta(stats_, tp_->wire_stats(), wire_base_);
  }

  /// Book one finished exchange's comm.halo.* counters: this rank's
  /// deltas since begin, plus — on rank 0 only — the collective counts,
  /// so the counters summed over ranks describe one exchange however
  /// many processes booked them.
  void book_exchange(const Pending& p) const {
    if (!telemetry::enabled()) return;
    static telemetry::Counter& c_exchanges =
        telemetry::counter("comm.halo.exchanges");
    static telemetry::Counter& c_split =
        telemetry::counter("comm.halo.overlap.split_exchanges");
    static const auto c_deltas = [] {
      std::array<telemetry::Counter*, detail::kRankCounters.size()> c{};
      for (std::size_t i = 0; i < c.size(); ++i)
        c[i] = &telemetry::counter(detail::kRankCounters[i].telemetry);
      return c;
    }();
    if (rank() == 0) {
      c_exchanges.add(1);
      if (p.split) c_split.add(1);
    }
    for (std::size_t i = 0; i < c_deltas.size(); ++i) {
      const auto field = detail::kRankCounters[i].field;
      c_deltas[i]->add(stats_.*field - p.before.*field);
    }
  }

  const LatticeGeometry* global_;
  ProcessGrid grid_;
  transport::Transport* tp_;
  Coord local_dims_;
  HaloLattice halo_;
  Coord origin_{};
  mutable CommStats stats_;
  mutable transport::WireStats wire_base_;
  mutable Pending pending_;
  HaloPrecision halo_precision_ = HaloPrecision::kFull;
};

namespace detail {

/// A rank's haloed links in the hop kernels' u(site, mu) form, indexed
/// by extended site.
template <typename T>
struct HaloLinks {
  const LinkSite<T>* links;
  const ColorMatrix<T>& operator()(std::int64_t xe, int mu) const {
    return links[xe][static_cast<std::size_t>(mu)];
  }
};

/// What a hop sweep stores at a target site x, given the raw hop sum
/// h = (D src)(x) and the auxiliary field's site a = aux[x]. The
/// operations run in the single-domain operators' order.
enum class HopStore {
  kHop,  ///< h           (Schur: D_eo x onto the even sites)
  kSub,  ///< a - c h     (Wilson M; the Schur combine)
  kAdd,  ///< c h + a     (Schur prepare_rhs / reconstruct)
};

/// One hop sweep on one rank: exchange src's halo, then fill dst's
/// target sites with the HopStore of (D src, aux).
template <typename T>
struct HopSweep {
  const RankCluster<T>* cluster = nullptr;
  const aligned_vector<LinkSite<T>>* gauge = nullptr;
  aligned_vector<WilsonSpinor<T>>* dst = nullptr;
  aligned_vector<WilsonSpinor<T>>* src = nullptr;
  const aligned_vector<WilsonSpinor<T>>* aux = nullptr;
  HopStore store = HopStore::kHop;
  T c = T(0);
  std::span<const std::int64_t> interior;  ///< targets closed before finish
  std::span<const std::int64_t> surface;   ///< targets that read ghosts

  /// The per-site arithmetic over a run of target sites: the
  /// single-domain hop kernel over the haloed fields, so every
  /// distributed operator is bit-identical to its single-domain
  /// counterpart.
  void compute(std::span<const std::int64_t> sites) const {
    const HaloLattice& halo = cluster->halo();
    const HaloLinks<T> u{gauge->data()};
    const std::span<const WilsonSpinor<T>> in(src->data(), src->size());
    for (const std::int64_t i : sites) {
      const std::int64_t x = halo.ext_index(halo.interior_coords(i));
      const auto xe = static_cast<std::size_t>(x);
      WilsonSpinor<T> h = hop_site(u, in, halo, x);
      if (store == HopStore::kSub) {
        h *= c;
        WilsonSpinor<T> v = (*aux)[xe];
        v -= h;
        h = v;
      } else if (store == HopStore::kAdd) {
        h *= c;
        h += (*aux)[xe];
      }
      (*dst)[xe] = h;
    }
  }
};

/// One operator application on one rank: its hop sweeps in order, and
/// the collective counter rank 0 books once per application (or none).
template <typename T>
struct HopPlan {
  std::array<HopSweep<T>, 2> sweeps{};
  int size = 0;
  const char* applies = nullptr;
};

/// Run one operator application on every rank in `plans` (one plan per
/// rank, all of the same shape) from the calling thread. Each sweep runs
/// begin on every rank, the interior sites of every rank, finish, then
/// the surface sites — or, without overlap, begin and finish before all
/// the sites — with one fork-join region per phase: the compute phases
/// go over the flattened (rank, site) range, the comm phases are
/// `begin(field, split)` / `finish(field)`, which exchange field(r) on
/// every rank r. Phase times accumulate into `ov`; the overlap and
/// site-apply counters are booked as each rank's share, collective
/// counts by rank 0 only.
template <typename T, typename Begin, typename Finish>
void run_hop_plans(std::span<const HopPlan<T>> plans, bool overlap,
                   OverlapStats& ov, const Begin& begin,
                   const Finish& finish) {
  const bool root = std::any_of(plans.begin(), plans.end(), [](auto& p) {
    return p.sweeps[0].cluster->rank() == 0;
  });
  const bool tele = telemetry::enabled();
  if (tele && root && plans[0].applies != nullptr)
    telemetry::counter(plans[0].applies).add(1);
  for (int k = 0; k < plans[0].size; ++k) {
    const auto sweep = [&](std::size_t r) -> const HopSweep<T>& {
      return plans[r].sweeps[static_cast<std::size_t>(k)];
    };
    const auto src = [&](int r) -> aligned_vector<WilsonSpinor<T>>& {
      return *sweep(static_cast<std::size_t>(r)).src;
    };
    std::int64_t n_int = 0;
    std::int64_t n_surf = 0;
    for (std::size_t r = 0; r < plans.size(); ++r) {
      n_int += static_cast<std::int64_t>(sweep(r).interior.size());
      n_surf += static_cast<std::int64_t>(sweep(r).surface.size());
    }
    // One region over every rank's sites of one kind, each chunk cut at
    // rank boundaries.
    const auto compute = [&](std::span<const std::int64_t> HopSweep<T>::*
                                 sites,
                             std::int64_t n) {
      parallel_for_chunks(
          static_cast<std::size_t>(n),
          [&](std::size_t lo, std::size_t hi, std::size_t) {
            std::size_t base = 0;
            for (std::size_t r = 0; r < plans.size() && base < hi; ++r) {
              const std::span<const std::int64_t> all = sweep(r).*sites;
              const std::size_t a = std::max(lo, base);
              const std::size_t b = std::min(hi, base + all.size());
              if (a < b) sweep(r).compute(all.subspan(a - base, b - a));
              base += all.size();
            }
          });
    };
    if (tele) {
      static telemetry::Counter& c_sites =
          telemetry::counter("dslash.site_applies");
      c_sites.add(n_int + n_surf);
    }
    if (!overlap) {
      begin(src, false);
      finish(src);
      compute(&HopSweep<T>::interior, n_int);
      compute(&HopSweep<T>::surface, n_surf);
      continue;
    }
    WallTimer t;
    begin(src, true);
    ov.t_begin_s += t.seconds();
    t.start();
    compute(&HopSweep<T>::interior, n_int);
    ov.t_interior_s += t.seconds();
    t.start();
    finish(src);
    ov.t_finish_s += t.seconds();
    t.start();
    compute(&HopSweep<T>::surface, n_surf);
    ov.t_surface_s += t.seconds();
    ov.applies += 1;
    ov.interior_sites += n_int;
    ov.surface_sites += n_surf;
    if (tele) {
      static telemetry::Counter& c_applies =
          telemetry::counter("comm.halo.overlap.applies");
      static telemetry::Counter& c_int =
          telemetry::counter("comm.halo.overlap.interior_sites");
      static telemetry::Counter& c_surf =
          telemetry::counter("comm.halo.overlap.surface_sites");
      if (root) c_applies.add(1);
      c_int.add(n_int);
      c_surf.add(n_surf);
    }
  }
}

}  // namespace detail

/// What the rank operators share: the rank's cluster and haloed gauge
/// links, kappa, the overlap switch and phase timings, and the runner
/// for a plan on this rank alone.
template <typename T>
class RankHopOperator {
 public:
  using RankFermion = typename RankCluster<T>::RankFermion;
  using RankGauge = typename RankCluster<T>::RankGauge;

  [[nodiscard]] const RankCluster<T>& cluster() const { return *cluster_; }
  [[nodiscard]] RankCluster<T>& cluster() { return *cluster_; }
  [[nodiscard]] double kappa() const { return static_cast<double>(kappa_); }
  /// Toggle the split-phase overlapped schedule (default on). Both
  /// schedules run the same per-site arithmetic, so results are
  /// bit-identical; only wall-clock structure differs.
  void set_overlap(bool on) { overlap_ = on; }
  /// Fermion halo wire precision (collective; gauge ghosts stay full).
  void set_halo_precision(HaloPrecision p) {
    cluster_->set_halo_precision(p);
  }
  /// Phase timings of this rank's overlapped sweeps.
  [[nodiscard]] const OverlapStats& overlap_stats() const { return ov_; }
  void reset_overlap_stats() { ov_.reset(); }

 protected:
  /// SPMD rank: own a cluster on `tp` and fill the gauge ghosts with a
  /// blocking exchange (collective).
  RankHopOperator(const GaugeField<T>& u, double kappa,
                  const ProcessGrid& grid, transport::Transport& tp,
                  TimeBoundary bc)
      : kappa_(checked_kappa(kappa)),
        owned_(std::make_unique<RankCluster<T>>(u.geometry(), grid, tp)),
        cluster_(owned_.get()),
        gauge_(cluster_->scatter_gauge(make_fermion_links(u, bc))) {}
  /// One rank of a VirtualCluster, which owns the cluster and has
  /// already filled the gauge ghosts.
  RankHopOperator(RankCluster<T>& cluster, RankGauge gauge, double kappa)
      : kappa_(checked_kappa(kappa)),
        cluster_(&cluster),
        gauge_(std::move(gauge)) {}

  /// A sweep filling dst's sites of global checkerboard `parity` (-1:
  /// every site) with `store` of (D src, aux).
  [[nodiscard]] detail::HopSweep<T> sweep(RankFermion& dst, RankFermion& src,
                                          int parity, detail::HopStore store,
                                          T c,
                                          const RankFermion* aux) const {
    const HaloLattice& h = cluster_->halo();
    // Local checkerboard whose global parity equals `parity`.
    const int lp = (parity + cluster_->origin_parity()) & 1;
    return {cluster_, &gauge_, &dst, &src, aux, store, c,
            parity < 0 ? h.interior_sites() : h.interior_sites(lp),
            parity < 0 ? h.surface_sites() : h.surface_sites(lp)};
  }

  /// Run a plan on this rank alone (collective over the grid).
  void run(const detail::HopPlan<T>& plan) const {
    detail::run_hop_plans<T>(
        {&plan, 1}, overlap_, ov_,
        [this](const auto& field, bool split) {
          cluster_->exchange_begin(field(0), split);
        },
        [this](const auto& field) { cluster_->exchange_finish(field(0)); });
  }

  T kappa_;

 private:
  static T checked_kappa(double kappa) {
    LQCD_REQUIRE(kappa > 0.0 && kappa < 0.25, "kappa out of (0, 0.25)");
    return static_cast<T>(kappa);
  }

  std::unique_ptr<RankCluster<T>> owned_;
  RankCluster<T>* cluster_;
  RankGauge gauge_;
  bool overlap_ = true;
  mutable OverlapStats ov_;
};

/// Full Wilson operator M = 1 - kappa D on one rank. Spans are rank-local
/// extended fields; apply() is collective (every rank of the grid must
/// call it in step). Gathered, the result is bit-identical to the
/// single-domain operator.
template <typename T>
class RankWilsonOperator : public RankHopOperator<T> {
 public:
  using typename RankHopOperator<T>::RankFermion;
  using typename RankHopOperator<T>::RankGauge;

  RankWilsonOperator(const GaugeField<T>& u, double kappa,
                     const ProcessGrid& grid, transport::Transport& tp,
                     TimeBoundary bc = TimeBoundary::Antiperiodic)
      : RankHopOperator<T>(u, kappa, grid, tp, bc) {}
  RankWilsonOperator(RankCluster<T>& cluster, RankGauge gauge, double kappa)
      : RankHopOperator<T>(cluster, std::move(gauge), kappa) {}

  /// out <- M in on this rank's sites (in's ghosts are clobbered).
  void apply(RankFermion& out, RankFermion& in) const {
    this->run(apply_plan(out, in));
  }

  /// apply() as a plan, for running several ranks in lockstep.
  [[nodiscard]] detail::HopPlan<T> apply_plan(RankFermion& out,
                                              RankFermion& in) const {
    return {{this->sweep(out, in, -1, detail::HopStore::kSub, this->kappa_,
                         &in)},
            1,
            "dslash.applies"};
  }
};

/// Even-odd (Schur) preconditioned Wilson operator on one rank: apply()
/// computes Mhat = 1 - kappa^2 D_oe D_eo on this rank's globally-odd
/// sites, each half-volume sweep overlapped on its own. Per-site stores
/// follow the single-domain SchurWilsonOperator (dirac/eo.hpp)
/// instruction for instruction, so iterates match bit for bit.
///
/// Fields live on the extended per-rank volume and are zero-initialized
/// once: sites of the unwritten parity stay deterministically zero,
/// which is what makes full-field exchanges of one-parity fields correct
/// (ghosts of the wrong parity are zero and never read).
template <typename T>
class RankSchurWilsonOperator : public RankHopOperator<T> {
 public:
  using typename RankHopOperator<T>::RankFermion;
  using typename RankHopOperator<T>::RankGauge;

  RankSchurWilsonOperator(const GaugeField<T>& u, double kappa,
                          const ProcessGrid& grid, transport::Transport& tp,
                          TimeBoundary bc = TimeBoundary::Antiperiodic)
      : RankHopOperator<T>(u, kappa, grid, tp, bc),
        tmp_(this->cluster().make_fermion()) {}
  RankSchurWilsonOperator(RankCluster<T>& cluster, RankGauge gauge,
                          double kappa)
      : RankHopOperator<T>(cluster, std::move(gauge), kappa),
        tmp_(cluster.make_fermion()) {}

  /// out (odd sites) <- in_odd - kappa^2 D_oe D_eo in_odd. `in` holds
  /// the source on globally-odd sites and zero elsewhere (ghosts are
  /// clobbered); `out` must be zero-initialized once by the caller.
  void apply(RankFermion& out, RankFermion& in) const {
    this->run(apply_plan(out, in));
  }
  /// bhat (odd sites) <- b_o + kappa D_oe b_e, b a full rank field.
  void prepare_rhs(RankFermion& bhat, RankFermion& b) const {
    this->run(prepare_rhs_plan(bhat, b));
  }
  /// x (even sites) <- b_e + kappa D_eo x_o; x's odd sites are the
  /// solution x_o the caller already holds.
  void reconstruct(RankFermion& x, RankFermion& x_odd,
                   const RankFermion& b) const {
    this->run(reconstruct_plan(x, x_odd, b));
  }

  // The same three as plans, for running several ranks in lockstep.
  [[nodiscard]] detail::HopPlan<T> apply_plan(RankFermion& out,
                                              RankFermion& in) const {
    // Even sites of tmp <- D_eo in (raw hop, kappa applied in the
    // combine, exactly as dslash_parity leaves it); then odd sites of
    // out <- in - kappa^2 D_oe tmp.
    return {{this->sweep(tmp_, in, 0, detail::HopStore::kHop, T(0), nullptr),
             this->sweep(out, tmp_, 1, detail::HopStore::kSub,
                         this->kappa_ * this->kappa_, &in)},
            2,
            "dslash.dist_schur_applies"};
  }
  [[nodiscard]] detail::HopPlan<T> prepare_rhs_plan(RankFermion& bhat,
                                                    RankFermion& b) const {
    return {{this->sweep(bhat, b, 1, detail::HopStore::kAdd, this->kappa_,
                         &b)},
            1,
            nullptr};
  }
  [[nodiscard]] detail::HopPlan<T> reconstruct_plan(
      RankFermion& x, RankFermion& x_odd, const RankFermion& b) const {
    return {{this->sweep(x, x_odd, 0, detail::HopStore::kAdd, this->kappa_,
                         &b)},
            1,
            nullptr};
  }

 private:
  mutable RankFermion tmp_;
};

/// A lattice decomposed over a process grid with every rank in this
/// process: N RankClusters over one in-process transport group, driven
/// in lockstep from the calling thread — each exchange phase runs as one
/// fork-join region over the ranks. Adds what one process holding all
/// ranks needs: scatter/gather of global fields, CommStats summed over
/// the ranks (with `exchanges` counting collective exchanges, one each),
/// and wire emulation.
template <typename T>
class VirtualCluster {
 public:
  VirtualCluster(const LatticeGeometry& global, const ProcessGrid& grid)
      : eps_(transport::make_inprocess_group(grid.size())),
        base_(static_cast<std::size_t>(grid.size())) {
    ranks_.reserve(eps_.size());
    for (const auto& ep : eps_) ranks_.emplace_back(global, grid, *ep);
  }

  [[nodiscard]] const LatticeGeometry& global_geometry() const {
    return ranks_[0].global_geometry();
  }
  [[nodiscard]] const ProcessGrid& grid() const { return ranks_[0].grid(); }
  [[nodiscard]] const HaloLattice& halo() const { return ranks_[0].halo(); }
  [[nodiscard]] int ranks() const { return static_cast<int>(ranks_.size()); }
  /// Global coordinate of rank-local coordinate xl (periodic wrap).
  [[nodiscard]] Coord global_coords(int r, const Coord& xl) const {
    return rank(r).global_coords(xl);
  }
  /// Counters summed over the ranks; `exchanges` is the epoch every rank
  /// starts its next exchange with.
  [[nodiscard]] CommStats& stats() const { return stats_; }

  /// Enable/disable the hardened transport on every rank.
  void set_resilience(const ResilienceConfig& rc) {
    for (RankCluster<T>& r : ranks_) r.set_resilience(rc);
  }
  /// Attach one fault injector to every rank (not owned).
  void set_fault_injector(FaultInjector* fi) {
    for (RankCluster<T>& r : ranks_) r.set_fault_injector(fi);
  }

  /// Emulate a shared wire of the given bandwidth (bytes/second): each
  /// exchange sleeps for its wire-byte total at that rate, on top of
  /// the in-process copy cost. The in-process hub moves frames at
  /// memcpy speed, which hides every bandwidth effect the α–β model
  /// (and a real NIC) charges for — with emulation on, wall-clock
  /// exchange time becomes a function of bytes actually framed, so
  /// wire-precision and payload changes are measurable. The slept time
  /// is also charged to CommStats::modeled_delay_us. 0 disables
  /// (default, and the only mode the bit-identity tests run in).
  void set_wire_emulation(double bytes_per_second) {
    wire_emulation_bps_ = bytes_per_second;
  }
  [[nodiscard]] double wire_emulation() const { return wire_emulation_bps_; }

  /// Wire precision for fermion halo faces on every rank.
  void set_halo_precision(HaloPrecision p) {
    for (RankCluster<T>& r : ranks_) r.set_halo_precision(p);
  }
  [[nodiscard]] HaloPrecision halo_precision() const {
    return ranks_[0].halo_precision();
  }

  /// Per-rank fermion / gauge storage on the extended (haloed) volume.
  using RankFermion = typename RankCluster<T>::RankFermion;
  using RankGauge = typename RankCluster<T>::RankGauge;

  [[nodiscard]] std::vector<RankFermion> make_fermion() const {
    std::vector<RankFermion> f;
    f.reserve(ranks_.size());
    for (const RankCluster<T>& r : ranks_) f.push_back(r.make_fermion());
    return f;
  }

  /// Distribute a global checkerboard-layout fermion field.
  void scatter(std::vector<RankFermion>& dst,
               std::span<const WilsonSpinor<T>> src) const {
    LQCD_REQUIRE(src.size() ==
                     static_cast<std::size_t>(global_geometry().volume()),
                 "scatter: global field size");
    for_each_site([&](std::size_t r, std::size_t e, std::size_t cb) {
      dst[r][e] = src[cb];
    });
  }

  /// Collect rank-local interiors back into a global field.
  void gather(std::span<WilsonSpinor<T>> dst,
              const std::vector<RankFermion>& src) const {
    LQCD_REQUIRE(dst.size() ==
                     static_cast<std::size_t>(global_geometry().volume()),
                 "gather: global field size");
    for_each_site([&](std::size_t r, std::size_t e, std::size_t cb) {
      dst[cb] = src[r][e];
    });
  }

  /// Distribute one checkerboard block of a global field (half volume,
  /// cb layout: index 0 of block `parity` is that parity's first site)
  /// into the matching rank-local sites. Sites of the other parity keep
  /// their current values — callers reuse zero-initialized rank storage
  /// so those stay deterministically zero.
  void scatter_parity(std::vector<RankFermion>& dst,
                      std::span<const WilsonSpinor<T>> src,
                      int parity) const {
    const auto hv = static_cast<std::size_t>(global_geometry().half_volume());
    LQCD_REQUIRE(src.size() == hv, "scatter_parity: half-volume field size");
    const std::size_t base = parity == 0 ? 0 : hv;
    for_each_site([&](std::size_t r, std::size_t e, std::size_t cb) {
      if ((cb >= hv ? 1 : 0) == parity) dst[r][e] = src[cb - base];
    });
  }

  /// Collect one parity's rank-local sites into a half-volume cb block.
  void gather_parity(std::span<WilsonSpinor<T>> dst,
                     const std::vector<RankFermion>& src,
                     int parity) const {
    const auto hv = static_cast<std::size_t>(global_geometry().half_volume());
    LQCD_REQUIRE(dst.size() == hv, "gather_parity: half-volume field size");
    const std::size_t base = parity == 0 ? 0 : hv;
    for_each_site([&](std::size_t r, std::size_t e, std::size_t cb) {
      if ((cb >= hv ? 1 : 0) == parity) dst[cb - base] = src[r][e];
    });
  }

  /// Distribute a gauge field and fill its ghost links (one-time setup
  /// exchange, as a production code does after loading a configuration).
  [[nodiscard]] std::vector<RankGauge> scatter_gauge(
      const GaugeField<T>& u) const {
    std::vector<RankGauge> g(ranks_.size());
    parallel_for(ranks_.size(),
                 [&](std::size_t r) { g[r] = ranks_[r].extract_gauge(u); });
    exchange(g);
    return g;
  }

  /// One Op (RankWilsonOperator or RankSchurWilsonOperator) per rank of
  /// this cluster, gauge ghosts filled by one lockstep exchange.
  template <typename Op>
  [[nodiscard]] std::vector<Op> make_rank_operators(const GaugeField<T>& u,
                                                    double kappa,
                                                    TimeBoundary bc) {
    std::vector<RankGauge> g = scatter_gauge(make_fermion_links(u, bc));
    std::vector<Op> ops;
    ops.reserve(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      ops.emplace_back(ranks_[r], std::move(g[r]), kappa);
    return ops;
  }

  /// Blocking halo exchange of a fermion (or gauge) field: the
  /// composition of exchange_begin() and exchange_finish().
  template <typename Field>
  void exchange(std::vector<Field>& f) const {
    begin_each(of(f), false);
    finish_each(of(f));
  }
  /// Phase 1 of the split exchange on every rank (RankCluster::
  /// exchange_begin). Interior (overlap-partition) sites of `f` stay
  /// free to be read and written until exchange_finish().
  void exchange_begin(std::vector<RankFermion>& f) const {
    begin_each(of(f), true);
  }
  /// Phase 2 on every rank: receive, verify, retransmit, unpack.
  void exchange_finish(std::vector<RankFermion>& f) const {
    finish_each(of(f));
  }
  /// True between exchange_begin() and exchange_finish().
  [[nodiscard]] bool exchange_in_flight() const noexcept {
    return ranks_[0].exchange_in_flight();
  }

  /// Run one rank-operator application on every rank in lockstep:
  /// plan(r) is rank r's HopPlan.
  template <typename PlanOf>
  void run(const PlanOf& plan, bool overlap, OverlapStats& ov) const {
    std::vector<detail::HopPlan<T>> plans;
    plans.reserve(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) plans.push_back(plan(r));
    detail::run_hop_plans<T>(
        plans, overlap, ov,
        [this](const auto& field, bool split) { begin_each(field, split); },
        [this](const auto& field) { finish_each(field); });
  }

 private:
  [[nodiscard]] const RankCluster<T>& rank(int r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }

  /// body(r, e, cb) for every site of every rank, one region over ranks.
  template <typename Body>
  void for_each_site(const Body& body) const {
    parallel_for(ranks_.size(), [&](std::size_t r) {
      ranks_[r].for_each_site(
          [&](std::size_t e, std::size_t cb) { body(r, e, cb); });
    });
  }

  /// Rank r's field of a per-rank field vector.
  template <typename Field>
  static auto of(std::vector<Field>& f) {
    return [&f](int r) -> Field& { return f[static_cast<std::size_t>(r)]; };
  }

  /// Begin on every rank. The guards run first, so a misuse throws
  /// without touching the exchange in flight; then every rank starts
  /// from the cluster's epoch, which a stats() reset or a failed
  /// exchange may have moved away from the ranks' own counts.
  template <typename FieldOf>
  void begin_each(const FieldOf& field, bool split) const {
    LQCD_REQUIRE(!exchange_in_flight(),
                 "halo exchange_begin: an exchange is already in flight "
                 "(double begin)");
    for (const RankCluster<T>& r : ranks_)
      r.stats().exchanges = stats_.exchanges;
    wire_at_begin_ = stats_.wire_bytes;
    each_rank([&](int r) { rank(r).exchange_begin(field(r), split); });
  }

  /// Finish on every rank, then count the collective exchange and charge
  /// the emulated wire.
  template <typename FieldOf>
  void finish_each(const FieldOf& field) const {
    for (int r = 0; r < ranks(); ++r) rank(r).require_pending(field(r));
    each_rank([&](int r) { rank(r).exchange_finish(field(r)); });
    stats_.exchanges += 1;
    if (wire_emulation_bps_ > 0.0) {
      const double us = static_cast<double>(stats_.wire_bytes -
                                            wire_at_begin_) /
                        wire_emulation_bps_ * 1e6;
      stats_.modeled_delay_us += us;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(us));
    }
  }

  /// One exchange phase on every rank, one fork-join region, then fold
  /// the ranks' counter deltas into stats_. If any rank fails, every
  /// rank rolls back — all endpoints drained, nothing in flight — before
  /// the first error propagates.
  template <typename Phase>
  void each_rank(const Phase& phase) const {
    try {
      parallel_for(ranks_.size(),
                   [&](std::size_t r) { phase(static_cast<int>(r)); });
    } catch (...) {
      for (const RankCluster<T>& r : ranks_) r.abort_exchange();
      fold_stats();
      throw;
    }
    fold_stats();
  }

  void fold_stats() const {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      const CommStats& now = ranks_[r].stats();
      CommStats& base = base_[r];
      for (const detail::RankCounter& c : detail::kRankCounters)
        stats_.*c.field += now.*c.field - base.*c.field;
      stats_.modeled_delay_us += now.modeled_delay_us - base.modeled_delay_us;
      base = now;
    }
  }

  std::vector<std::unique_ptr<transport::Transport>> eps_;
  std::vector<RankCluster<T>> ranks_;
  mutable std::vector<CommStats> base_;  ///< rank stats at the last fold
  mutable CommStats stats_;
  mutable std::int64_t wire_at_begin_ = 0;
  double wire_emulation_bps_ = 0.0;
};

/// What the distributed operators share: a virtual cluster with one
/// rank operator (Op) per rank, the overlap switch and the phase timings.
/// They are LinearOperators on *global* fields, so any solver in the
/// library runs "distributed" unchanged and must produce identical
/// iterates to the single-domain operator.
template <typename T, typename Op>
class DistributedHopOperator : public LinearOperator<T> {
 public:
  [[nodiscard]] const VirtualCluster<T>& cluster() const { return cluster_; }
  /// Mutable access for attaching resilience config / fault injection.
  [[nodiscard]] VirtualCluster<T>& cluster() { return cluster_; }
  [[nodiscard]] double kappa() const { return ops_[0].kappa(); }

  /// Wire precision of the fermion halo (the gauge ghosts filled at
  /// construction stay full precision). kHalf quantizes ghost planes to
  /// int16 block float, so results are no longer bit-identical to the
  /// single-domain operator — the trade bench_precision quantifies. The
  /// zero other-parity ghosts of the Schur fields round-trip exactly, so
  /// the Schur parity invariant is preserved.
  void set_halo_precision(HaloPrecision p) {
    cluster_.set_halo_precision(p);
  }
  [[nodiscard]] HaloPrecision halo_precision() const {
    return cluster_.halo_precision();
  }

  /// Toggle the split-phase overlapped schedule (default on); results
  /// are bit-identical either way.
  void set_overlap(bool on) { overlap_ = on; }
  [[nodiscard]] bool overlap() const { return overlap_; }
  /// Accumulated phase timings, site counts summed over ranks; each hop
  /// sweep counts as one overlapped apply.
  [[nodiscard]] const OverlapStats& overlap_stats() const { return ov_; }
  void reset_overlap_stats() { ov_.reset(); }

 protected:
  DistributedHopOperator(const GaugeField<T>& u, double kappa,
                         const ProcessGrid& grid, TimeBoundary bc)
      : cluster_(u.geometry(), grid),
        ops_(cluster_.template make_rank_operators<Op>(u, kappa, bc)) {}

  /// Run plan(r) — rank r's HopPlan — on every rank in lockstep.
  template <typename PlanOf>
  void run(const PlanOf& plan) const {
    cluster_.run(plan, overlap_, ov_);
  }

  VirtualCluster<T> cluster_;
  std::vector<Op> ops_;

 private:
  bool overlap_ = true;
  mutable OverlapStats ov_;
};

/// Full Wilson operator through the virtual cluster: scatter, run the
/// RankWilsonOperator schedule on every rank, gather.
template <typename T>
class DistributedWilsonOperator final
    : public DistributedHopOperator<T, RankWilsonOperator<T>> {
 public:
  DistributedWilsonOperator(const GaugeField<T>& u, double kappa,
                            const ProcessGrid& grid,
                            TimeBoundary bc = TimeBoundary::Antiperiodic)
      : DistributedHopOperator<T, RankWilsonOperator<T>>(u, kappa, grid, bc),
        in_ranks_(this->cluster_.make_fermion()),
        out_ranks_(this->cluster_.make_fermion()) {}

  void apply(std::span<WilsonSpinor<T>> out,
             std::span<const WilsonSpinor<T>> in) const override {
    this->cluster_.scatter(in_ranks_, in);
    this->run([&](std::size_t r) {
      return this->ops_[r].apply_plan(out_ranks_[r], in_ranks_[r]);
    });
    this->cluster_.gather(out, out_ranks_);
  }

  [[nodiscard]] std::int64_t vector_size() const override {
    return this->cluster_.global_geometry().volume();
  }
  [[nodiscard]] double flops_per_apply() const override {
    return static_cast<double>(vector_size()) * (kDslashFlopsPerSite + 48.0);
  }

 private:
  mutable std::vector<typename VirtualCluster<T>::RankFermion> in_ranks_;
  mutable std::vector<typename VirtualCluster<T>::RankFermion> out_ranks_;
};

}  // namespace lqcd
