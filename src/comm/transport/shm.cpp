#include "comm/transport/shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace lqcd::transport {

namespace {

constexpr std::uint64_t kShmMagic = 0x314D454D48535154ull;  // "TQSHMEM1"
constexpr std::size_t kHeaderBytes = 4096;
/// head | pad | tail | pad, each on its own cacheline.
constexpr std::size_t kRingCtrlBytes = 128;

struct ShmHeader {
  std::uint64_t magic;
  std::uint32_t ranks;
  std::uint32_t ring_bytes;
  std::uint32_t dead[kShmMaxRanks];
};
static_assert(sizeof(ShmHeader) <= kHeaderBytes);

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error("shm transport: " + what + ": " + std::strerror(errno));
}

[[nodiscard]] std::size_t ring_stride(std::uint32_t ring_bytes) {
  return kRingCtrlBytes + ring_bytes;
}

[[nodiscard]] std::atomic_ref<std::uint64_t> head_ref(std::byte* ring) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(ring));
}
[[nodiscard]] std::atomic_ref<std::uint64_t> tail_ref(std::byte* ring) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(ring + 64));
}
[[nodiscard]] std::byte* ring_buf(std::byte* ring) {
  return ring + kRingCtrlBytes;
}

/// Copy into/out of the ring buffer with wraparound (capacity is a
/// power of two; head/tail are monotonic).
void ring_copy_in(std::byte* buf, std::uint32_t cap, std::uint64_t pos,
                  const std::byte* src, std::size_t n) {
  const std::size_t off = static_cast<std::size_t>(pos & (cap - 1));
  const std::size_t first = std::min<std::size_t>(n, cap - off);
  std::memcpy(buf + off, src, first);
  if (n > first) std::memcpy(buf, src + first, n - first);
}
void ring_copy_out(std::byte* dst, const std::byte* buf, std::uint32_t cap,
                   std::uint64_t pos, std::size_t n) {
  const std::size_t off = static_cast<std::size_t>(pos & (cap - 1));
  const std::size_t first = std::min<std::size_t>(n, cap - off);
  std::memcpy(dst, buf + off, first);
  if (n > first) std::memcpy(dst + first, buf, n - first);
}

}  // namespace

std::size_t shm_segment_bytes(int n, std::uint32_t ring_bytes) {
  return kHeaderBytes + static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n) *
                            ring_stride(ring_bytes);
}

void shm_create(const std::string& path, int n, std::uint32_t ring_bytes) {
  LQCD_REQUIRE(n >= 1 && n <= kShmMaxRanks, "shm_create: bad rank count");
  LQCD_REQUIRE(ring_bytes >= 4096 &&
                   (ring_bytes & (ring_bytes - 1)) == 0,
               "shm_create: ring_bytes must be a power of two >= 4096");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0600);
  if (fd < 0) sys_fail("open " + path);
  const std::size_t total = shm_segment_bytes(n, ring_bytes);
  if (::ftruncate(fd, static_cast<off_t>(total)) < 0) sys_fail("ftruncate");
  void* p = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) sys_fail("mmap");
  ::close(fd);
  std::memset(p, 0, kHeaderBytes);
  ShmHeader* h = static_cast<ShmHeader*>(p);
  h->ranks = static_cast<std::uint32_t>(n);
  h->ring_bytes = ring_bytes;
  // Publish the magic last: a mapper seeing it sees a complete header.
  std::atomic_ref<std::uint64_t>(h->magic).store(
      kShmMagic, std::memory_order_release);
  ::munmap(p, total);
}

void shm_mark_dead(const std::string& path, int rank) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) sys_fail("open " + path);
  void* p = ::mmap(nullptr, kHeaderBytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) sys_fail("mmap");
  ::close(fd);
  ShmHeader* h = static_cast<ShmHeader*>(p);
  LQCD_REQUIRE(rank >= 0 &&
                   rank < static_cast<int>(h->ranks),
               "shm_mark_dead: rank out of range");
  std::atomic_ref<std::uint32_t>(h->dead[rank]).store(
      1, std::memory_order_release);
  ::munmap(p, kHeaderBytes);
}

ShmTransport::ShmTransport(int rank, int size, const std::string& path)
    : StreamTransport(rank, size) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) sys_fail("open " + path);
  struct stat st{};
  if (::fstat(fd, &st) < 0) sys_fail("fstat");
  map_bytes_ = static_cast<std::size_t>(st.st_size);
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
  if (p == MAP_FAILED) sys_fail("mmap");
  ::close(fd);
  map_ = static_cast<std::byte*>(p);
  ShmHeader* h = reinterpret_cast<ShmHeader*>(map_);
  LQCD_REQUIRE(std::atomic_ref<std::uint64_t>(h->magic).load(
                   std::memory_order_acquire) == kShmMagic,
               "shm transport: segment not initialized");
  LQCD_REQUIRE(static_cast<int>(h->ranks) == size,
               "shm transport: segment rank count mismatch");
  ring_bytes_ = h->ring_bytes;
  LQCD_REQUIRE(map_bytes_ >= shm_segment_bytes(size, ring_bytes_),
               "shm transport: segment too small");
}

ShmTransport::~ShmTransport() {
  if (map_ == nullptr) return;
  // A rank already declared dead is dropped by its peers: nothing of its
  // to flush.
  if (!rank_dead(rank())) flush_on_close();
  // Cover clean exits and the thread harness; the launcher's waitpid
  // covers crashes.
  ShmHeader* h = reinterpret_cast<ShmHeader*>(map_);
  std::atomic_ref<std::uint32_t>(h->dead[rank()])
      .store(1, std::memory_order_release);
  ::munmap(map_, map_bytes_);
}

std::byte* ShmTransport::ring_base(int src, int dst) const {
  const std::size_t idx = static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(size()) +
                          static_cast<std::size_t>(dst);
  return map_ + kHeaderBytes + idx * ring_stride(ring_bytes_);
}

bool ShmTransport::rank_dead(int r) const {
  const ShmHeader* h = reinterpret_cast<const ShmHeader*>(map_);
  return std::atomic_ref<const std::uint32_t>(h->dead[r]).load(
             std::memory_order_acquire) != 0;
}

bool ShmTransport::peer_alive(int r) const {
  if (r == rank()) return true;
  return !rank_dead(r);
}

std::size_t ShmTransport::write_some(int dst, std::span<const std::byte> head,
                                     std::span<const std::byte> tail) {
  std::byte* ring = ring_base(rank(), dst);
  auto tl = tail_ref(ring);
  const std::uint64_t t = tl.load(std::memory_order_relaxed);
  const std::uint64_t h = head_ref(ring).load(std::memory_order_acquire);
  const std::size_t free = ring_bytes_ - static_cast<std::size_t>(t - h);
  const std::size_t nh = std::min(free, head.size());
  const std::size_t nt =
      nh == head.size() ? std::min(free - nh, tail.size()) : 0;
  if (nh == 0) return 0;
  ring_copy_in(ring_buf(ring), ring_bytes_, t, head.data(), nh);
  if (nt != 0)  // an empty tail may have a null data()
    ring_copy_in(ring_buf(ring), ring_bytes_, t + nh, tail.data(), nt);
  tl.store(t + nh + nt, std::memory_order_release);
  return nh + nt;
}

std::size_t ShmTransport::read_some(int src, std::span<std::byte> buf) {
  std::byte* ring = ring_base(src, rank());
  auto hd = head_ref(ring);
  const std::uint64_t h = hd.load(std::memory_order_relaxed);
  const std::uint64_t t = tail_ref(ring).load(std::memory_order_acquire);
  const std::size_t n = std::min(static_cast<std::size_t>(t - h), buf.size());
  if (n == 0) return 0;
  ring_copy_out(buf.data(), ring_buf(ring), ring_bytes_, h, n);
  hd.store(h + n, std::memory_order_release);
  return n;
}

void ShmTransport::wait(std::chrono::steady_clock::duration idle) {
  // Yield while the wait is young, then sleep in 100 us steps so a long
  // wait leaves the core to others. The yield phase outlasts a round trip
  // of 64 KiB frames (~100 us on a 3-GHz-class host). The budget is time,
  // not rounds: a round's cost varies with the rank count and the pump,
  // and a budget in rounds can run out while a frame is still in flight.
  if (idle < std::chrono::microseconds(250))
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

}  // namespace lqcd::transport
