#include "comm/transport/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace lqcd::transport {

namespace {

constexpr std::uint32_t kIdentityMagic = 0x4449514Cu;  // "LQID"
constexpr int kWaitMs = 50;

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error("socket transport: " + what + ": " +
              std::strerror(errno));
}

void write_all_blocking(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_fail("write");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_all_blocking(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      sys_fail("read");
    }
    if (r == 0) throw Error("socket transport: peer closed mid-handshake");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

std::string read_line_blocking(int fd) {
  std::string line;
  char c;
  for (;;) {
    read_all_blocking(fd, &c, 1);
    if (c == '\n') return line;
    line.push_back(c);
    LQCD_REQUIRE(line.size() < 4096, "rendezvous line too long");
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_fail("fcntl O_NONBLOCK");
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0)
    sys_fail("setsockopt TCP_NODELAY");
}

int connect_loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // The peer's listener is up before the rendezvous releases the table,
  // but a full accept backlog can still bounce us; retry briefly. A fd
  // whose connect() failed is in an unspecified state, so each attempt
  // gets a fresh socket.
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    const int err = errno;
    ::close(fd);
    if ((err == ECONNREFUSED || err == EAGAIN) && attempt < 200) {
      ::usleep(10000);
      continue;
    }
    errno = err;
    sys_fail("connect 127.0.0.1:" + std::to_string(port));
  }
}

}  // namespace

int listen_loopback(int& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    sys_fail("bind");
  if (::listen(fd, SOMAXCONN) < 0) sys_fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    sys_fail("getsockname");
  port_out = ntohs(addr.sin_port);
  return fd;
}

void rendezvous_serve(int listen_fd, int n) {
  std::vector<int> fds(static_cast<std::size_t>(n), -1);
  std::vector<int> ports(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) sys_fail("rendezvous accept");
    std::istringstream is(read_line_blocking(fd));
    std::string word;
    int rank = -1, port = 0;
    is >> word >> rank >> port;
    LQCD_REQUIRE(word == "HELO" && rank >= 0 && rank < n && port > 0,
                 "rendezvous: malformed registration");
    LQCD_REQUIRE(fds[static_cast<std::size_t>(rank)] < 0,
                 "rendezvous: duplicate rank registration");
    fds[static_cast<std::size_t>(rank)] = fd;
    ports[static_cast<std::size_t>(rank)] = port;
  }
  std::ostringstream table;
  table << "PEERS";
  for (int r = 0; r < n; ++r) table << ' ' << ports[static_cast<std::size_t>(r)];
  table << '\n';
  const std::string line = table.str();
  for (int r = 0; r < n; ++r) {
    write_all_blocking(fds[static_cast<std::size_t>(r)], line.data(),
                       line.size());
    ::close(fds[static_cast<std::size_t>(r)]);
  }
}

SocketTransport::SocketTransport(int rank, int size,
                                 const std::string& rendezvous_host,
                                 int rendezvous_port)
    : StreamTransport(rank, size), peers_(static_cast<std::size_t>(size)) {
  LQCD_REQUIRE(rendezvous_host == "127.0.0.1" ||
                   rendezvous_host == "localhost",
               "socket transport: loopback rendezvous only");
  int my_port = 0;
  const int listener = listen_loopback(my_port);
  // Register and learn every rank's listener port.
  const int rv = connect_loopback(rendezvous_port);
  {
    std::ostringstream os;
    os << "HELO " << rank << ' ' << my_port << '\n';
    const std::string line = os.str();
    write_all_blocking(rv, line.data(), line.size());
  }
  std::vector<int> ports(static_cast<std::size_t>(size), 0);
  {
    std::istringstream is(read_line_blocking(rv));
    std::string word;
    is >> word;
    LQCD_REQUIRE(word == "PEERS", "rendezvous: malformed table");
    for (int r = 0; r < size; ++r) is >> ports[static_cast<std::size_t>(r)];
  }
  ::close(rv);
  // Mesh: dial every lower rank, accept from every higher rank. The
  // 8-byte identity preamble maps accepted fds to ranks.
  for (int r = 0; r < rank; ++r) {
    const int fd = connect_loopback(ports[static_cast<std::size_t>(r)]);
    const std::uint32_t hello[2] = {kIdentityMagic,
                                    static_cast<std::uint32_t>(rank)};
    write_all_blocking(fd, hello, sizeof hello);
    peers_[static_cast<std::size_t>(r)].fd = fd;
  }
  for (int n = rank + 1; n < size; ++n) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) sys_fail("mesh accept");
    std::uint32_t hello[2] = {0, 0};
    read_all_blocking(fd, hello, sizeof hello);
    LQCD_REQUIRE(hello[0] == kIdentityMagic,
                 "mesh handshake: bad identity magic");
    const int r = static_cast<int>(hello[1]);
    LQCD_REQUIRE(r > rank && r < size &&
                     peers_[static_cast<std::size_t>(r)].fd < 0,
                 "mesh handshake: bad or duplicate rank identity");
    peers_[static_cast<std::size_t>(r)].fd = fd;
  }
  ::close(listener);
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    Peer& p = peers_[static_cast<std::size_t>(r)];
    set_nodelay(p.fd);
    set_nonblocking(p.fd);
    p.alive = true;
  }
}

SocketTransport::~SocketTransport() {
  flush_on_close();
  for (Peer& p : peers_)
    if (p.fd >= 0) ::close(p.fd);
}

bool SocketTransport::peer_alive(int r) const {
  if (r == rank()) return true;
  return peers_[static_cast<std::size_t>(r)].alive;
}

void SocketTransport::mark_dead(Peer& p) {
  if (p.fd >= 0) ::close(p.fd);
  p.fd = -1;
  p.alive = false;
}

std::size_t SocketTransport::write_some(int dst,
                                        std::span<const std::byte> head,
                                        std::span<const std::byte> tail) {
  Peer& p = peers_[static_cast<std::size_t>(dst)];
  if (!p.alive) return 0;
  iovec iov[2] = {
      {const_cast<std::byte*>(head.data()), head.size()},
      {const_cast<std::byte*>(tail.data()), tail.size()},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = tail.empty() ? 1 : 2;
  for (;;) {
    const ssize_t w = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
    if (w >= 0) return static_cast<std::size_t>(w);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) mark_dead(p);
    return 0;
  }
}

std::size_t SocketTransport::read_some(int src, std::span<std::byte> buf) {
  Peer& p = peers_[static_cast<std::size_t>(src)];
  if (!p.alive) return 0;
  for (;;) {
    const ssize_t r = ::recv(p.fd, buf.data(), buf.size(), 0);
    if (r > 0) return static_cast<std::size_t>(r);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    // EOF or hard error: the peer is gone.
    mark_dead(p);
    return 0;
  }
}

void SocketTransport::wait(std::chrono::steady_clock::duration idle) {
  (void)idle;  // poll() blocks until a stream moves: no backoff needed
  pfds_.clear();
  for (int r = 0; r < size(); ++r) {
    const Peer& p = peers_[static_cast<std::size_t>(r)];
    if (r == rank() || !p.alive) continue;
    pollfd pf{};
    pf.fd = p.fd;
    pf.events = POLLIN;
    if (outbox_pending(r)) pf.events |= POLLOUT;
    pfds_.push_back(pf);
  }
  if (pfds_.empty()) return;
  if (::poll(pfds_.data(), pfds_.size(), kWaitMs) < 0 && errno != EINTR)
    sys_fail("poll");
}

}  // namespace lqcd::transport
