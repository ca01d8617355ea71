#pragma once
// In-process transport backend: N virtual ranks inside one process,
// wired through a mutex+condvar mailbox hub.
//
// This is the default backend. A VirtualCluster is N RankClusters on one
// group of these endpoints, driven in lockstep from one thread (every
// rank's send phase before any rank's receive phase); the tests' SPMD
// harness drives the same endpoints with one thread per rank. Frames
// move as structs (no serialization); the pristine payload
// rides along with each record, so redelivery after a detected fault is
// a local re-roll of the injector schedule rather than a wire NACK —
// byte-equivalent to the sender re-sending, without the modeled wire
// round trip. Wire counters are still booked per frame (header +
// payload, as if serialized) so the modeled α–β comparison prices the
// same stream a socket run produces; self-sends never count wire bytes
// on any backend.
//
// Endpoint objects are single-threaded (one rank's endpoint is driven by
// one thread at a time: its rank thread, or the pool thread running that
// rank in a lockstep phase); the hub serializes cross-rank handoff.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "comm/transport/transport.hpp"

namespace lqcd::transport {

class InProcessTransport;

/// Shared mailbox state for one group of in-process endpoints.
class InProcessHub {
 public:
  explicit InProcessHub(int size) : size_(size) {}
  [[nodiscard]] int size() const noexcept { return size_; }

 private:
  friend class InProcessTransport;

  struct MailKey {
    std::uint64_t route;  ///< src << 32 | dst
    std::uint64_t tag;
    bool operator==(const MailKey&) const = default;
  };
  struct MailKeyHash {
    std::size_t operator()(const MailKey& k) const noexcept {
      return std::hash<std::uint64_t>()(k.tag ^ (k.route * 0x9E3779B97F4A7C15ull));
    }
  };
  struct Record {
    std::uint32_t flags = 0;
    std::uint32_t crc = 0;
    bool maybe_clean = false;
    std::vector<std::byte> payload;
    std::vector<std::byte> pristine;
  };

  int size_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<MailKey, std::deque<Record>, MailKeyHash> mail_;
};

class InProcessTransport final : public Transport {
 public:
  InProcessTransport(std::shared_ptr<InProcessHub> hub, int rank);

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kInProcess;
  }

 protected:
  void raw_send(int dst, std::uint64_t tag, std::uint32_t flags,
                std::uint32_t crc, bool tampered,
                std::span<const std::byte> wire,
                std::span<const std::byte> pristine) override;
  Inbound raw_fetch(int src, std::uint64_t tag) override;
  bool raw_try_fetch(int src, std::uint64_t tag, Inbound& out) override;
  Inbound redeliver(int src, std::uint64_t tag, int attempt,
                    Inbound prev) override;
  void drain_backend() override;

 private:
  std::shared_ptr<InProcessHub> hub_;
};

}  // namespace lqcd::transport
