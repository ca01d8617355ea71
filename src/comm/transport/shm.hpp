#pragma once
// Shared-memory transport backend: N same-host processes over lock-free
// SPSC byte rings in one mmapped segment — the low-latency intra-node
// path (no syscalls on the data path; ~100ns handoff vs ~10us loopback
// TCP).
//
// Segment layout (created by lqcd_launch via shm_create, mapped by every
// rank):
//
//   header page: magic, rank count, ring capacity, per-rank dead flags
//   N*N rings:   one SPSC ring per ordered (src, dst) pair, each with
//                cacheline-separated head (consumer) / tail (producer)
//                monotonic u64 counters and a power-of-two byte buffer
//
// Frames, outboxes, the inbox and the receive protocol are the stream
// layer's (stream.hpp), shared with the socket backend; this backend
// moves the bytes. write_some copies what fits into the (rank -> dst)
// ring, read_some copies what the (src -> rank) ring holds, and wait
// spins (yield, then 100 us sleeps) — no syscalls on the data path. A
// frame larger than the ring streams through it in segments; bytes that
// do not fit spill to the stream layer's outbox, so the ring is flow
// control, not a bound on message size, and two ranks exchanging
// oversized faces cannot deadlock on full rings. All cross-process
// synchronization is std::atomic_ref acquire/release on the counters and
// the dead flags — no futexes, no locks.
//
// Peer death: the launcher (which owns waitpid) sets the dead flag of an
// exited rank; a ShmTransport destructor sets its own, covering clean
// exits and the in-process thread harness. Receivers drain whatever the
// departed producer left in the ring, then raise TransientError — a
// partial frame left in the reader by a producer killed mid-write is a
// torn frame and fails immediately. A producer whose consumer died
// drops its spilled bytes instead of retrying forever.

#include <cstdint>
#include <string>

#include "comm/transport/stream.hpp"

namespace lqcd::transport {

inline constexpr int kShmMaxRanks = 64;
inline constexpr std::uint32_t kShmDefaultRingBytes = 1u << 20;

/// Total segment size for N ranks (for ftruncate / bounds checks).
[[nodiscard]] std::size_t shm_segment_bytes(int n,
                                            std::uint32_t ring_bytes);

/// Create and initialize a segment file (launcher side). `ring_bytes`
/// must be a power of two >= 4096.
void shm_create(const std::string& path, int n, std::uint32_t ring_bytes);

/// Mark `rank` dead in an existing segment (launcher side, on waitpid).
void shm_mark_dead(const std::string& path, int rank);

class ShmTransport final : public StreamTransport {
 public:
  ShmTransport(int rank, int size, const std::string& path);
  ~ShmTransport() override;

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kShm;
  }
  [[nodiscard]] bool peer_alive(int r) const override;

 protected:
  std::size_t write_some(int dst, std::span<const std::byte> head,
                         std::span<const std::byte> tail) override;
  std::size_t read_some(int src, std::span<std::byte> buf) override;
  void wait(std::chrono::steady_clock::duration idle) override;

 private:
  [[nodiscard]] std::byte* ring_base(int src, int dst) const;
  [[nodiscard]] bool rank_dead(int r) const;

  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::uint32_t ring_bytes_ = 0;
};

}  // namespace lqcd::transport
