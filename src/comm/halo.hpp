#pragma once
// Domain-decomposition vocabulary shared by every halo code path.
//
// Each rank owns a local sub-lattice stored with a depth-1 ghost frame
// (the "halo", HaloLattice). The exchange is split-phase, the way a
// production dslash drives MPI: begin packs the rank's 8 boundary planes
// and posts them as tagged frames through its lqcd::transport endpoint
// (push model: each rank sends its own faces), finish receives,
// verifies, retransmits and unpacks into the ghost frames. The fault
// injector and CRC framing act at the frame layer, identically on the
// in-process, socket and shared-memory backends. This header holds what
// that exchange is made of: the halo layout and its interior/surface
// overlap partition, the face walker every pack and unpack shares (the
// bit-identity anchor of the wire format), the half-precision face
// codec, the CommStats counters — payload bytes and bytes-on-the-wire
// separately, so the analytic network model can be cross-checked against
// the functional path, framing overhead included — and the OverlapStats
// phase timings.
//
// There is one implementation of the exchange and of the distributed
// Wilson and Schur operators, the SPMD one in comm/transport/rank_halo.hpp
// (included at the bottom, so this header gives the whole API):
// RankCluster is one rank, RankWilsonOperator / RankSchurWilsonOperator
// run on it, and VirtualCluster / DistributedWilsonOperator run N of them
// in one process on the in-process transport.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/transport/transport.hpp"
#include "gauge/gauge_field.hpp"
#include "lattice/field.hpp"
#include "linalg/spinor.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace lqcd {

/// Local sub-lattice with a depth-1 ghost frame. Extended coordinates run
/// -1 .. l[mu]; ext_index() offsets them into a dense array.
class HaloLattice {
 public:
  explicit HaloLattice(const Coord& local_dims);

  [[nodiscard]] const Coord& local_dims() const noexcept { return l_; }
  [[nodiscard]] std::int64_t interior_volume() const noexcept {
    return interior_vol_;
  }
  [[nodiscard]] std::int64_t extended_volume() const noexcept {
    return ext_vol_;
  }

  /// Dense index of an extended coordinate (components in [-1, l]).
  [[nodiscard]] std::int64_t ext_index(const Coord& x) const noexcept {
    return (x[0] + 1) +
           static_cast<std::int64_t>(e_[0]) *
               ((x[1] + 1) +
                static_cast<std::int64_t>(e_[1]) *
                    ((x[2] + 1) +
                     static_cast<std::int64_t>(e_[2]) * (x[3] + 1)));
  }

  /// Extended index one step forward / backward in mu: the layout steps
  /// one stride per direction, so a HaloLattice is the neighbour table
  /// the hop kernels (detail::hop_site) take.
  [[nodiscard]] std::int64_t fwd(std::int64_t xe, int mu) const noexcept {
    return xe + stride_[static_cast<std::size_t>(mu)];
  }
  [[nodiscard]] std::int64_t bwd(std::int64_t xe, int mu) const noexcept {
    return xe - stride_[static_cast<std::size_t>(mu)];
  }

  /// Interior coordinate of the i-th interior site (lexicographic).
  [[nodiscard]] Coord interior_coords(std::int64_t i) const noexcept {
    Coord x{};
    x[0] = static_cast<int>(i % l_[0]);
    i /= l_[0];
    x[1] = static_cast<int>(i % l_[1]);
    i /= l_[1];
    x[2] = static_cast<int>(i % l_[2]);
    i /= l_[2];
    x[3] = static_cast<int>(i);
    return x;
  }

  /// Number of sites on the face orthogonal to mu.
  [[nodiscard]] std::int64_t face_volume(int mu) const noexcept {
    return interior_vol_ / l_[mu];
  }

  // --- overlap partition -------------------------------------------------
  // "Interior" here is the overlap sense (distinct from interior_volume(),
  // which counts all owned sites): a site whose full stencil is closed
  // over resident data, i.e. >= 1 away from every local face. "Surface"
  // sites touch at least one ghost. Both lists hold lexicographic site
  // indices (the argument interior_coords() accepts); they are disjoint
  // and together cover the local volume. With any extent == 2 the interior
  // is empty and every site is surface.

  /// Sites computable before the halo exchange completes.
  [[nodiscard]] std::span<const std::int64_t> interior_sites()
      const noexcept {
    return interior_all_;
  }
  /// Sites whose hops read ghost data; compute after exchange_finish().
  [[nodiscard]] std::span<const std::int64_t> surface_sites()
      const noexcept {
    return surface_all_;
  }
  /// Parity-filtered views; `parity` is the local checkerboard parity
  /// (x0+x1+x2+x3) mod 2 of the site's local coordinate.
  [[nodiscard]] std::span<const std::int64_t> interior_sites(
      int parity) const noexcept {
    return interior_par_[static_cast<std::size_t>(parity)];
  }
  [[nodiscard]] std::span<const std::int64_t> surface_sites(
      int parity) const noexcept {
    return surface_par_[static_cast<std::size_t>(parity)];
  }

 private:
  Coord l_;
  Coord e_;
  std::array<std::int64_t, Nd> stride_{};
  std::int64_t interior_vol_;
  std::int64_t ext_vol_;
  std::vector<std::int64_t> interior_all_;
  std::vector<std::int64_t> surface_all_;
  std::array<std::vector<std::int64_t>, 2> interior_par_;
  std::array<std::vector<std::int64_t>, 2> surface_par_;
};

/// Wire precision of fermion halo faces. kFull ships sites verbatim;
/// kHalf packs each spinor as int16 block float (one float scale + 24
/// quantized components, 52 bytes/site) using the detail16 quantizers.
/// The frame format, CRC protocol and fault injection are unchanged —
/// compression happens strictly inside the payload. Gauge (LinkSite)
/// exchanges always go full precision.
enum class HaloPrecision { kFull, kHalf };

[[nodiscard]] inline const char* to_string(HaloPrecision p) {
  return p == HaloPrecision::kHalf ? "half" : "full";
}

/// Communication counters accumulated by exchange operations.
struct CommStats {
  std::int64_t messages = 0;  ///< first-attempt sends
  std::int64_t bytes = 0;     ///< payload bytes of first-attempt sends
  std::int64_t exchanges = 0;
  /// Bytes actually framed onto the (modeled or real) wire: headers,
  /// payloads, retransmits, NACKs and drop markers. Self-wrap faces on
  /// extent-1 process dimensions never touch the wire and count zero —
  /// the payload-vs-wire split the α–β comparison was blind to before.
  std::int64_t wire_bytes = 0;
  std::int64_t wire_frames = 0;
  // Resilience counters (only move when checksums / faults are active).
  std::int64_t retransmits = 0;    ///< extra sends after a detected fault
  std::int64_t crc_failures = 0;   ///< corrupted payloads caught by CRC
  std::int64_t timeouts = 0;       ///< dropped messages detected
  std::int64_t straggler_events = 0;
  std::int64_t checksum_bytes = 0;  ///< bytes CRC-framed (sender side)
  /// Payload bytes a full-precision exchange would have shipped for the
  /// same faces — the denominator of the compression ratio. Equals
  /// `bytes` when every exchange ran at HaloPrecision::kFull.
  std::int64_t full_equiv_bytes = 0;
  /// Fermion faces sent as int16 block float (8 per rank per half-
  /// precision exchange, self-wrap faces included).
  std::int64_t compressed_frames = 0;
  /// Modeled resilience delay: straggler stalls plus retransmit backoff.
  /// Charged analytically (the in-process transport does not sleep) so
  /// the α–β network model can price the hardened path.
  double modeled_delay_us = 0.0;
  void reset() { *this = CommStats{}; }
};

namespace detail {

/// The CommStats counters that add up over ranks — every integer field
/// but the collective `exchanges` — with the telemetry counter each rank
/// books its share into.
struct RankCounter {
  std::int64_t CommStats::*field;
  const char* telemetry;
};
inline constexpr std::array<RankCounter, 11> kRankCounters{{
    {&CommStats::messages, "comm.halo.messages"},
    {&CommStats::bytes, "comm.halo.bytes"},
    {&CommStats::wire_bytes, "comm.halo.wire_bytes"},
    {&CommStats::wire_frames, "comm.halo.wire_frames"},
    {&CommStats::retransmits, "comm.halo.retransmits"},
    {&CommStats::crc_failures, "comm.halo.crc_failures"},
    {&CommStats::timeouts, "comm.halo.timeouts"},
    {&CommStats::checksum_bytes, "comm.halo.checksum_bytes"},
    {&CommStats::straggler_events, "comm.halo.straggler_events"},
    {&CommStats::full_equiv_bytes, "comm.halo.full_equiv_bytes"},
    {&CommStats::compressed_frames, "comm.halo.compressed_frames"},
}};

/// Visit the plane x[mu] = coord of a haloed field: visit(k, e) for the
/// k-th site of the plane, e its extended index. The fixed x3..x0 order
/// is the bit-identity anchor every backend shares: as long as pack and
/// unpack walk the plane this way, ghost bytes — and frame CRCs — are
/// identical on the virtual, socket and shm paths.
template <typename Visit>
void walk_face(const HaloLattice& halo, int mu, int coord, Visit&& visit) {
  Coord n = halo.local_dims();
  n[mu] = 1;
  std::size_t k = 0;
  Coord x{};
  for (x[3] = 0; x[3] < n[3]; ++x[3])
    for (x[2] = 0; x[2] < n[2]; ++x[2])
      for (x[1] = 0; x[1] < n[1]; ++x[1])
        for (x[0] = 0; x[0] < n[0]; ++x[0]) {
          Coord y = x;
          y[mu] = coord;
          visit(k++, static_cast<std::size_t>(halo.ext_index(y)));
        }
}

/// Pack the boundary plane of `field` orthogonal to mu at x[mu] =
/// src_coord into a byte payload (site-wise memcpy: one flat message
/// buffer regardless of site type).
template <typename SiteT>
void pack_face(std::vector<std::byte>& out,
               const std::vector<SiteT, AlignedAllocator<SiteT>>& field,
               const HaloLattice& halo, int mu, int src_coord) {
  out.resize(static_cast<std::size_t>(halo.face_volume(mu)) *
             sizeof(SiteT));
  walk_face(halo, mu, src_coord, [&](std::size_t k, std::size_t e) {
    std::memcpy(out.data() + k * sizeof(SiteT), &field[e], sizeof(SiteT));
  });
}

/// Unpack a payload into the ghost plane at x[mu] = ghost_coord.
template <typename SiteT>
void unpack_face(std::vector<SiteT, AlignedAllocator<SiteT>>& field,
                 std::span<const std::byte> payload, const HaloLattice& halo,
                 int mu, int ghost_coord) {
  LQCD_REQUIRE(payload.size() ==
                   static_cast<std::size_t>(halo.face_volume(mu)) *
                       sizeof(SiteT),
               "halo unpack: face payload size mismatch");
  walk_face(halo, mu, ghost_coord, [&](std::size_t k, std::size_t e) {
    std::memcpy(&field[e], payload.data() + k * sizeof(SiteT),
                sizeof(SiteT));
  });
}

namespace detail16 {

inline constexpr float kQScale = 32767.0f;

/// One component to int16 fixed point at scale 1/inv_scale. Scalar
/// floating-point components only: the clamp and round have no lane-wise
/// meaning, so a lane-packed Simd type does not compile here.
template <typename T>
inline std::int16_t quantize_one(T x, T inv_scale) {
  static_assert(std::is_floating_point_v<T>,
                "quantize_one is per-component scalar");
  T v = x * inv_scale * T(kQScale);
  // Branchless clamp + round-half-away-from-zero (min/max/copysign all
  // compile to single instructions; the wire codec quantizes every face
  // component through here, so this is comm-path hot).
  v = std::min(std::max(v, -T(kQScale)), T(kQScale));
  return static_cast<std::int16_t>(v + std::copysign(T(0.5), v));
}

template <typename T>
inline T dequantize_one(std::int16_t q, T scale) {
  static_assert(std::is_floating_point_v<T>,
                "dequantize_one is per-component scalar");
  return static_cast<T>(q) * (scale / T(kQScale));
}

}  // namespace detail16

// --- half-precision face codec -------------------------------------------
// Wire format per spinor site: one float scale (the site's |component|
// max, block-float style) followed by 24 little-endian int16 quantized
// components in the fixed (spin, color, re/im) order. 52 bytes/site
// regardless of T, so the wire format — and therefore the frame CRCs and
// the fault schedules keyed on them — is identical for float and double
// fields and across all transport backends.

inline constexpr std::size_t kHalfSiteBytes =
    sizeof(float) + 2 * Ns * Nc * sizeof(std::int16_t);  // 52

/// Quantize one spinor into `dst` (kHalfSiteBytes). The scale is the
/// amax rounded through float — encode and decode use the *same* float
/// value, so decode(encode(x)) is a pure function of the wire bytes. A
/// zero site (amax == 0, the Schur other-parity invariant) encodes to
/// all-zero bytes and decodes to exactly zero. Sites whose amax falls
/// below the float normal range flush to the same zero encoding: a
/// subnormal scale would overflow 1/scale for T = float (0 * inf = NaN
/// on zero components) and flushing identically for every T keeps the
/// wire bytes — and so the frame CRCs — T-independent.
template <typename T>
inline void encode_half_site(std::byte* dst, const WilsonSpinor<T>& psi) {
  constexpr int n = 2 * Ns * Nc;
  static_assert(sizeof(WilsonSpinor<T>) == n * sizeof(T),
                "wire codec assumes a spinor is n contiguous components");
  // Flat component view in the fixed (spin, color, re/im) wire order —
  // the spinor's own layout — so both loops below vectorize.
  T comp[n];
  std::memcpy(comp, &psi, sizeof(comp));
  T amax = T(0);
  for (int i = 0; i < n; ++i) amax = std::max(amax, std::fabs(comp[i]));
  float scale = static_cast<float>(amax);
  std::int16_t q[n] = {};
  if (scale >= std::numeric_limits<float>::min()) {
    const T inv = T(1) / static_cast<T>(scale);
    for (int i = 0; i < n; ++i)
      q[i] = detail16::quantize_one(comp[i], inv);
  } else {
    scale = 0.0f;
  }
  std::memcpy(dst, &scale, sizeof(float));
  std::memcpy(dst + sizeof(float), q, sizeof(q));
}

/// Dequantize one site from `src` (kHalfSiteBytes) into `out`.
template <typename T>
inline void decode_half_site(WilsonSpinor<T>& out, const std::byte* src) {
  constexpr int n = 2 * Ns * Nc;
  float scale = 0.0f;
  std::memcpy(&scale, src, sizeof(float));
  std::int16_t q[n];
  std::memcpy(q, src + sizeof(float), sizeof(q));
  const T s16 = static_cast<T>(scale);
  T comp[n];
  for (int i = 0; i < n; ++i)
    comp[i] = detail16::dequantize_one(q[i], s16);
  std::memcpy(&out, comp, sizeof(comp));
}

/// pack_face twin that emits int16 block-float sites.
template <typename T>
void pack_face_half(std::vector<std::byte>& out,
                    const aligned_vector<WilsonSpinor<T>>& field,
                    const HaloLattice& halo, int mu, int src_coord) {
  out.resize(static_cast<std::size_t>(halo.face_volume(mu)) *
             kHalfSiteBytes);
  walk_face(halo, mu, src_coord, [&](std::size_t k, std::size_t e) {
    encode_half_site(out.data() + k * kHalfSiteBytes, field[e]);
  });
}

/// unpack_face twin for compressed payloads: dequantizes straight into
/// the ghost plane, so the compute kernels never see the wire format.
template <typename T>
void unpack_face_half(aligned_vector<WilsonSpinor<T>>& field,
                      std::span<const std::byte> payload,
                      const HaloLattice& halo, int mu, int ghost_coord) {
  LQCD_REQUIRE(payload.size() ==
                   static_cast<std::size_t>(halo.face_volume(mu)) *
                       kHalfSiteBytes,
               "halo unpack: compressed face payload size mismatch");
  walk_face(halo, mu, ghost_coord, [&](std::size_t k, std::size_t e) {
    decode_half_site(field[e], payload.data() + k * kHalfSiteBytes);
  });
}

/// Only fermion faces compress; gauge (LinkSite) setup exchanges always
/// ship full precision regardless of the knob.
template <typename SiteT>
inline constexpr bool is_spinor_site_v = false;
template <typename T>
inline constexpr bool is_spinor_site_v<WilsonSpinor<T>> = true;

/// Precision-dispatching pack: kHalf compresses spinor faces, everything
/// else falls through to the verbatim packer.
template <typename SiteT>
void pack_face_prec(std::vector<std::byte>& out,
                    const std::vector<SiteT, AlignedAllocator<SiteT>>& field,
                    const HaloLattice& halo, int mu, int src_coord,
                    HaloPrecision prec) {
  if constexpr (is_spinor_site_v<SiteT>) {
    if (prec == HaloPrecision::kHalf) {
      pack_face_half(out, field, halo, mu, src_coord);
      return;
    }
  }
  (void)prec;
  pack_face(out, field, halo, mu, src_coord);
}

template <typename SiteT>
void unpack_face_prec(std::vector<SiteT, AlignedAllocator<SiteT>>& field,
                      std::span<const std::byte> payload,
                      const HaloLattice& halo, int mu, int ghost_coord,
                      HaloPrecision prec) {
  if constexpr (is_spinor_site_v<SiteT>) {
    if (prec == HaloPrecision::kHalf) {
      unpack_face_half(field, payload, halo, mu, ghost_coord);
      return;
    }
  }
  (void)prec;
  unpack_face(field, payload, halo, mu, ghost_coord);
}

/// Payload bytes one rank's 8 faces occupy at the given precision.
template <typename SiteT>
[[nodiscard]] inline std::int64_t face_payload_bytes(const HaloLattice& halo,
                                                     HaloPrecision prec) {
  std::size_t site_bytes = sizeof(SiteT);
  if constexpr (is_spinor_site_v<SiteT>) {
    if (prec == HaloPrecision::kHalf) site_bytes = kHalfSiteBytes;
  }
  std::int64_t total = 0;
  for (int mu = 0; mu < Nd; ++mu)
    total += 2 * halo.face_volume(mu) *
             static_cast<std::int64_t>(site_bytes);
  return total;
}

/// Fold one endpoint's wire-counter delta into CommStats.
inline void merge_wire_delta(CommStats& dst, const transport::WireStats& now,
                             transport::WireStats& base) {
  dst.messages += now.frames - base.frames;
  dst.bytes += now.payload_bytes - base.payload_bytes;
  dst.wire_frames += now.wire_frames - base.wire_frames;
  dst.wire_bytes += now.wire_bytes - base.wire_bytes;
  dst.retransmits += now.retransmits - base.retransmits;
  dst.crc_failures += now.crc_failures - base.crc_failures;
  dst.timeouts += now.timeouts - base.timeouts;
  dst.checksum_bytes += now.checksum_bytes - base.checksum_bytes;
  dst.modeled_delay_us += now.modeled_delay_us - base.modeled_delay_us;
  base = now;
}

}  // namespace detail

/// Measured wall-clock decomposition of overlapped applies, accumulated
/// across calls. Phase times are real (each phase runs as one fork-join
/// region over every rank the caller drives); t_hidden_s() is the comm
/// time a machine with asynchronous progress would hide behind the
/// interior window — the quantity model_dslash prices as `hidden`.
struct OverlapStats {
  std::int64_t applies = 0;
  std::int64_t interior_sites = 0;  ///< summed over ranks and applies
  std::int64_t surface_sites = 0;
  double t_begin_s = 0.0;     ///< pack + post (comm send side)
  double t_interior_s = 0.0;  ///< interior compute (overlap window)
  double t_finish_s = 0.0;    ///< verify + retransmit + unpack
  double t_surface_s = 0.0;   ///< surface compute
  [[nodiscard]] double t_comm_s() const { return t_begin_s + t_finish_s; }
  [[nodiscard]] double t_compute_s() const {
    return t_interior_s + t_surface_s;
  }
  /// Serial sum: what the un-overlapped schedule would cost.
  [[nodiscard]] double t_sequential_s() const {
    return t_comm_s() + t_compute_s();
  }
  [[nodiscard]] double t_hidden_s() const {
    return std::min(t_comm_s(), t_interior_s);
  }
  /// Overlap-adjusted total, comparable to model_dslash's t_total.
  [[nodiscard]] double t_overlapped_s() const {
    return t_sequential_s() - t_hidden_s();
  }
  /// Fraction of comm time hidden behind the interior window.
  [[nodiscard]] double hidden_fraction() const {
    return t_comm_s() > 0.0 ? t_hidden_s() / t_comm_s() : 0.0;
  }
  void reset() { *this = OverlapStats{}; }
};

}  // namespace lqcd

// The exchange itself, the rank operators and the virtual cluster built
// from them; included last so that either header gives the whole API.
#include "comm/transport/rank_halo.hpp"
