#pragma once
// lqcd::transport — pluggable point-to-point transport under the halo API.
//
// Transport is the MPI-communicator analogue every distributed layer
// programs against: tagged send/recv, a barrier, a deterministic
// allreduce for solver dot products, gather/broadcast, and rank/size
// introspection. Three backends implement it:
//
//   InProcessTransport  N virtual ranks inside one process (mailbox hub);
//                       the VirtualCluster's ranks, and the SPMD thread
//                       harness the tests use.
//   SocketTransport     N real processes over loopback TCP, nonblocking
//                       I/O, launched by lqcd_launch.
//   ShmTransport        N same-host processes over lock-free shared-
//                       memory rings — the low-latency intra-node path.
//
// The two wire backends share one framed byte-stream layer,
// StreamTransport (stream.hpp): frame serialization, outboxes, frame
// dispatch, the (src, tag) inbox, the receive loop with its timeout and
// dead-peer rule, and the close flush. They keep only how their bytes
// move.
//
// The PR-1 reliability protocol lives HERE, once, in the base class:
// send() CRC-frames the pristine payload and rolls the deterministic
// fault injector (drops become header-only marker frames, corruption
// mutates bytes after the CRC is taken); recv() verifies, books
// timeouts/CRC failures, and drives bounded receiver-side retransmits
// with modeled exponential backoff — locally from a pristine copy on the
// in-process backend, via real NACK frames to the sender's pristine
// cache on the wire backends. Injector decisions are keyed on
// (epoch, receiver rank, mu, dir, attempt) decoded from the halo tag, so
// one scripted fault schedule fires identically on every backend.
//
// Peer death is a first-class outcome: a dead peer raises TransientError
// from recv (socket: EOF; shm: the launcher's dead flag; in-process: the
// injector's kill schedule, checked by the halo layer) and the caller
// recovers through the PR-1/PR-7 paths — checkpoint restart or lane
// re-sharding. FatalError is reserved for an exhausted retry budget.
//
// WireStats separates logical payload bytes from bytes-on-the-wire
// (headers, NACKs, retransmits, drop markers); self-sends never touch
// the wire and count zero wire bytes. CommStats mirrors the split so the
// α–β model comparison sees the framing overhead it used to be blind to.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport/frame.hpp"
#include "util/error.hpp"

namespace lqcd {

/// Hardening knobs for the transport (moved here from halo.hpp; the halo
/// header re-exports it, so existing includes keep compiling).
struct ResilienceConfig {
  bool checksum = false;  ///< CRC-32-frame every message and verify
  int max_retries = 3;    ///< retransmits per message before giving up
  /// Backoff before retransmit k (1-based): backoff_us * 2^(k-1),
  /// accumulated into modeled_delay_us.
  double backoff_us = 50.0;
};

namespace transport {

enum class TransportKind { kInProcess, kSocket, kShm };

[[nodiscard]] const char* to_string(TransportKind k);
/// Parse "virtual" / "socket" / "shm" (throws lqcd::Error otherwise).
[[nodiscard]] TransportKind parse_transport_kind(std::string_view name);

/// Endpoint-local wire counters. RankCluster merges these into its
/// CommStats after each exchange phase.
struct WireStats {
  std::int64_t frames = 0;         ///< first-attempt sends (incl. self)
  std::int64_t payload_bytes = 0;  ///< their logical payload bytes
  std::int64_t wire_frames = 0;    ///< frames actually put on the wire
  std::int64_t wire_bytes = 0;     ///< header+payload bytes on the wire
  std::int64_t retransmits = 0;    ///< redeliveries this endpoint drove
  std::int64_t crc_failures = 0;   ///< corrupted payloads caught by CRC
  std::int64_t timeouts = 0;       ///< dropped messages detected
  std::int64_t checksum_bytes = 0;  ///< bytes CRC-framed by this endpoint
  double modeled_delay_us = 0.0;    ///< retransmit backoff (modeled)
  void reset() { *this = WireStats{}; }
};

class Transport {
 public:
  Transport(int rank, int size);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] virtual TransportKind kind() const = 0;

  void set_resilience(const ResilienceConfig& rc) { resil_ = rc; }
  [[nodiscard]] const ResilienceConfig& resilience() const { return resil_; }
  /// Attach a fault injector (not owned; nullptr detaches). Faults fire
  /// on halo-tagged frames only, keyed identically on every backend.
  void set_fault_injector(FaultInjector* fi) { injector_ = fi; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Post one tagged message. Never blocks on the receiver (wire
  /// backends buffer in user space when the kernel would block).
  void send(int dst, std::uint64_t tag, std::span<const std::byte> payload);

  /// Blocking matched receive: runs the verify/NACK/retransmit protocol
  /// and returns the delivered payload in `out` (buffer reused).
  /// Throws TransientError if `src` dies first, FatalError once the
  /// retry budget is exhausted.
  void recv(int src, std::uint64_t tag, std::vector<std::byte>& out);

  /// Nonblocking probe-and-receive; false when nothing has arrived yet.
  /// A frame that *has* arrived runs the same verify/retransmit path.
  bool try_recv(int src, std::uint64_t tag, std::vector<std::byte>& out);

  /// Central barrier through rank 0 (two message waves).
  void barrier();
  /// Element-wise sum with a deterministic, rank-ordered reduction:
  /// rank 0 accumulates its own values, then ranks 1..N-1 in order —
  /// the fixed summation order distributed solver dot products need for
  /// bit-reproducibility at fixed N.
  void allreduce_sum(std::span<double> vals);
  /// Root receives every rank's blob (own slot included); non-roots get
  /// an empty vector.
  std::vector<std::vector<std::byte>> gather(int root,
                                             std::span<const std::byte> mine);
  void broadcast(int root, std::vector<std::byte>& data);

  /// False once the backend has observed `r` die (EOF / dead flag).
  /// In-process ranks share fate, so the in-process backend always
  /// reports alive.
  [[nodiscard]] virtual bool peer_alive(int r) const {
    (void)r;
    return true;
  }

  /// Discard undelivered inbound frames and retransmit caches — the
  /// recovery hook after an aborted exchange, so stale frames under
  /// reused tags cannot satisfy the retried epoch's receives.
  void drain();

  [[nodiscard]] const WireStats& wire_stats() const { return wstats_; }
  void reset_wire_stats() { wstats_.reset(); }

 protected:
  /// A frame as the receive path sees it. `pristine` rides along only on
  /// local routes (self-sends and the in-process hub), where redelivery
  /// is a local re-roll instead of a wire NACK. `maybe_clean` marks
  /// payloads the fault injector verifiably did not touch, letting local
  /// routes skip the tautological receiver-side hash — wire backends
  /// always verify.
  struct Inbound {
    std::uint32_t flags = 0;
    std::uint32_t crc = 0;
    bool maybe_clean = false;
    std::vector<std::byte> payload;
    std::vector<std::byte> pristine;
  };

  /// Put one frame toward `dst` (never called with dst == rank()).
  /// `tampered` tells struct-moving backends the payload differs from
  /// `pristine`; wire backends serialize and ignore it.
  virtual void raw_send(int dst, std::uint64_t tag, std::uint32_t flags,
                        std::uint32_t crc, bool tampered,
                        std::span<const std::byte> wire,
                        std::span<const std::byte> pristine) = 0;
  /// Blocking fetch of the next frame matching (src, tag). Must service
  /// inbound NACKs while waiting. Throws TransientError if src is dead
  /// and no matching frame is buffered.
  virtual Inbound raw_fetch(int src, std::uint64_t tag) = 0;
  /// Nonblocking fetch; false when no matching frame has arrived.
  virtual bool raw_try_fetch(int src, std::uint64_t tag, Inbound& out) = 0;
  /// Obtain attempt `attempt` of a message that failed verification.
  /// Wire backends NACK the sender and fetch; local routes re-roll from
  /// the pristine copy (local_redeliver).
  virtual Inbound redeliver(int src, std::uint64_t tag, int attempt,
                            Inbound prev) = 0;
  /// Backend part of drain().
  virtual void drain_backend() = 0;

  /// Roll the deterministic fault schedule for one (message, attempt):
  /// returns false when the attempt is dropped; may corrupt `buf` in
  /// place (sets `tampered`). Keys on the RECEIVER's rank, so the push
  /// and pull formulations of the halo exchange share one schedule.
  bool roll_send_faults(std::span<std::byte> buf, std::uint64_t tag,
                        int dst_rank, int attempt, bool& tampered);

  /// Local redelivery from a pristine copy (self route / in-process).
  Inbound local_redeliver(std::uint64_t tag, int attempt, Inbound prev);

  /// Sender-side pristine cache for wire NACK service. Keyed (dst, tag);
  /// bounded FIFO. Populated for halo frames under an attached injector
  /// and, with checksumming on, for every frame — any of those can come
  /// back as a NACK. An unknown-key NACK is answered with a drop marker
  /// so the receiver's retry budget resolves it.
  void stash_pristine(int dst, std::uint64_t tag, std::uint32_t crc,
                      std::span<const std::byte> payload);
  /// Service one inbound NACK: re-send attempt `attempt` of (dst, tag)
  /// from the pristine cache through a fresh fault roll.
  void service_nack(int dst, std::uint64_t tag, std::uint32_t attempt);

  WireStats wstats_;
  ResilienceConfig resil_;
  FaultInjector* injector_ = nullptr;

 private:
  Inbound self_fetch(std::uint64_t tag);
  void deliver(int src, std::uint64_t tag, Inbound f,
               std::vector<std::byte>& out);

  struct CacheKey {
    int dst;
    std::uint64_t tag;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return std::hash<std::uint64_t>()(
          k.tag ^ (static_cast<std::uint64_t>(k.dst) << 48));
    }
  };
  struct CacheEntry {
    std::uint32_t crc = 0;
    std::vector<std::byte> payload;
  };

  int rank_;
  int size_;
  std::unordered_map<std::uint64_t, std::deque<Inbound>> self_inbox_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> pristine_cache_;
  std::deque<CacheKey> pristine_order_;
  std::uint64_t barrier_seq_ = 0;
  std::uint64_t reduce_seq_ = 0;
  std::uint64_t gather_seq_ = 0;
  std::uint64_t bcast_seq_ = 0;
};

/// N wired in-process endpoints sharing one mailbox hub — the default
/// backend (declared here so callers need not include inprocess.hpp).
std::vector<std::unique_ptr<Transport>> make_inprocess_group(int n);

/// Construct the backend a launcher described through the environment
/// (LQCD_TRANSPORT / LQCD_RANK / LQCD_SIZE plus backend-specific
/// variables); nullptr when LQCD_TRANSPORT is unset — the caller runs
/// single-process virtual.
std::unique_ptr<Transport> make_transport_from_env();

}  // namespace transport
}  // namespace lqcd
