#pragma once
// Stream transport: the framed byte-stream layer under the wire backends.
//
// SocketTransport and ShmTransport each move one byte stream per ordered
// rank pair — a TCP connection or an SPSC ring — and everything above
// how those bytes move is the same, so it lives here, once:
//
//   send     encode_header() framing with wire-byte booking, and a
//            per-peer outbox: what a stream cannot take now spills to
//            user space and later frames queue behind it, so a send
//            never blocks on the receiver and the byte stream stays in
//            order;
//   receive  one reusable read buffer, a FrameReader per peer, and frame
//            dispatch — routing checks, inbound NACKs answered from the
//            base class's pristine cache, everything else into a
//            (src, tag) inbox;
//   protocol raw_fetch / raw_try_fetch / redeliver (NACK the sender,
//            then fetch) / drain_backend, the receive timeout, and the
//            dead-peer rule: once src is dead and a pump moved nothing,
//            every complete frame it left has been dispatched, so the
//            receive raises TransientError (a residue left in the reader
//            is a torn frame and is named as one);
//   close    a bounded (2 s) flush of spilled bytes.
//
// A backend keeps its setup and three primitives over its streams:
// write_some (nonblocking gathered write), read_some (nonblocking read of
// what one peer sent; end of stream marks the peer dead) and wait (the
// idle wait between pumps that moved nothing), plus peer_alive().

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/transport/transport.hpp"

namespace lqcd::transport {

class StreamTransport : public Transport {
 public:
  /// A blocking receive that exceeds this budget raises TransientError
  /// (<= 0: wait forever). Launched processes set it from
  /// LQCD_RECV_TIMEOUT_MS.
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_ = ms; }

 protected:
  StreamTransport(int rank, int size);

  /// Nonblocking write of `head` then `tail` toward `dst`, as much as the
  /// stream takes now; returns the bytes taken (0 when it is full). A
  /// hard error marks `dst` dead.
  virtual std::size_t write_some(int dst, std::span<const std::byte> head,
                                 std::span<const std::byte> tail) = 0;
  /// Nonblocking read of bytes `src` sent into `buf`; returns the count
  /// (0 when none is there now). End of stream marks `src` dead.
  virtual std::size_t read_some(int src, std::span<std::byte> buf) = 0;
  /// Wait after a pump that moved nothing; `idle` is how long nothing
  /// has moved. Returns within 50 ms.
  virtual void wait(std::chrono::steady_clock::duration idle) = 0;

  /// True while spilled bytes toward `dst` wait for room.
  [[nodiscard]] bool outbox_pending(int dst) const {
    return !outbox_[static_cast<std::size_t>(dst)].chunks.empty();
  }
  /// Flush spilled bytes for at most 2 s, so a clean exit does not
  /// strand a final frame (a worker's last result queued while the
  /// stream was full). Backend destructors call it before tearing their
  /// streams down.
  void flush_on_close() noexcept;

  void raw_send(int dst, std::uint64_t tag, std::uint32_t flags,
                std::uint32_t crc, bool tampered,
                std::span<const std::byte> wire,
                std::span<const std::byte> pristine) final;
  Inbound raw_fetch(int src, std::uint64_t tag) final;
  bool raw_try_fetch(int src, std::uint64_t tag, Inbound& out) final;
  Inbound redeliver(int src, std::uint64_t tag, int attempt,
                    Inbound prev) final;
  void drain_backend() final;

 private:
  /// Bytes a full stream could not take yet, in FIFO order.
  struct Outbox {
    std::deque<std::vector<std::byte>> chunks;
    std::size_t off = 0;  ///< partial-write offset into chunks front
  };
  struct InboxKey {
    int src;
    std::uint64_t tag;
    bool operator==(const InboxKey&) const = default;
  };
  struct InboxKeyHash {
    std::size_t operator()(const InboxKey& k) const noexcept {
      return std::hash<std::uint64_t>()(
          k.tag ^ (static_cast<std::uint64_t>(k.src) << 40));
    }
  };

  /// Frame one message and put it toward `dst`: straight into the
  /// stream when nothing is spilled ahead of it, the rest to the outbox.
  void put_frame(int dst, std::uint64_t tag, std::uint32_t flags,
                 std::uint32_t crc, std::span<const std::byte> payload);
  /// Move spilled bytes for `dst` into its stream as room allows; drops
  /// them if dst died. Returns true if any bytes moved.
  bool flush_outbox(int dst);
  /// Flush every outbox, read every peer's stream and dispatch the
  /// complete frames. Returns true if any bytes moved.
  bool pump();
  void dispatch(int src);
  bool inbox_pop(int src, std::uint64_t tag, Inbound& out);
  /// "socket transport" / "shm transport", for error messages.
  [[nodiscard]] std::string who() const;

  std::vector<FrameReader> readers_;  ///< one per inbound stream
  std::vector<Outbox> outbox_;        ///< one per outbound stream
  std::unordered_map<InboxKey, std::deque<Inbound>, InboxKeyHash> inbox_;
  std::vector<std::byte> read_buf_;
  int recv_timeout_ms_ = -1;
};

}  // namespace lqcd::transport
