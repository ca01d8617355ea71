#pragma once
// TCP socket transport backend: N real processes over a loopback mesh.
//
// Topology: every rank opens an ephemeral-port listener, registers it
// with the launcher's rendezvous server, receives the full port table,
// then dials every lower rank and accepts from every higher rank — a
// full mesh of TCP_NODELAY connections with an 8-byte identity preamble
// mapping each accepted fd to its rank.
//
// Frames, outboxes, the inbox and the receive protocol are the stream
// layer's (stream.hpp); this backend moves the bytes. write_some is one
// nonblocking gathered sendmsg() per frame — what the kernel does not
// take spills to the stream layer's outbox, so exchange_begin() returns
// while the kernel moves bytes and the overlap window is real, not
// modeled. read_some is a nonblocking recv() per live peer, and wait is a
// bounded poll() over every live fd (POLLOUT too while an outbox holds
// spilled bytes).
//
// Peer death is an EOF (or ECONNRESET): the rank is marked dead, and a
// receive from it — once nothing matching is buffered — raises
// TransientError, which is exactly what the PR-1 retry and PR-7
// lane-recovery paths key on. The receive timeout converts a silent hang
// (peer alive but wedged) into the same TransientError so campaigns
// degrade instead of deadlocking.

#include <poll.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comm/transport/stream.hpp"

namespace lqcd::transport {

/// Create a listening TCP socket on 127.0.0.1 with an ephemeral port;
/// returns the fd and stores the chosen port. Throws lqcd::Error.
int listen_loopback(int& port_out);

/// Serve one rendezvous round on an already-listening socket: accept N
/// registrations ("HELO <rank> <port>\n"), then answer every rank with
/// the full table ("PEERS <p0> ... <pN-1>\n"). Used by lqcd_launch and
/// the in-test harness.
void rendezvous_serve(int listen_fd, int n);

class SocketTransport final : public StreamTransport {
 public:
  /// Register with the rendezvous server and build the full mesh.
  SocketTransport(int rank, int size, const std::string& rendezvous_host,
                  int rendezvous_port);
  ~SocketTransport() override;

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kSocket;
  }
  [[nodiscard]] bool peer_alive(int r) const override;

 protected:
  std::size_t write_some(int dst, std::span<const std::byte> head,
                         std::span<const std::byte> tail) override;
  std::size_t read_some(int src, std::span<std::byte> buf) override;
  void wait(std::chrono::steady_clock::duration idle) override;

 private:
  struct Peer {
    int fd = -1;
    bool alive = false;
  };

  void mark_dead(Peer& p);

  std::vector<Peer> peers_;
  std::vector<pollfd> pfds_;  ///< wait()'s poll set, reused
};

}  // namespace lqcd::transport
