#include "comm/transport/transport.hpp"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "comm/transport/inprocess.hpp"
#include "comm/transport/shm.hpp"
#include "comm/transport/socket.hpp"
#include "util/crc32.hpp"

namespace lqcd::transport {

namespace {
/// Pristine-cache bound: halo traffic keeps at most 8 live tags per
/// peer; 64 entries absorbs pipelined epochs without unbounded growth.
constexpr std::size_t kMaxPristineEntries = 64;
}  // namespace

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kInProcess:
      return "virtual";
    case TransportKind::kSocket:
      return "socket";
    case TransportKind::kShm:
      return "shm";
  }
  return "?";
}

TransportKind parse_transport_kind(std::string_view name) {
  if (name == "virtual" || name == "inprocess")
    return TransportKind::kInProcess;
  if (name == "socket") return TransportKind::kSocket;
  if (name == "shm") return TransportKind::kShm;
  throw Error("unknown transport '" + std::string(name) +
              "' (expected virtual, socket, or shm)");
}

Transport::Transport(int rank, int size) : rank_(rank), size_(size) {
  LQCD_REQUIRE(size >= 1, "transport: size must be >= 1");
  LQCD_REQUIRE(rank >= 0 && rank < size, "transport: rank out of range");
}

bool Transport::roll_send_faults(std::span<std::byte> buf, std::uint64_t tag,
                                 int dst_rank, int attempt, bool& tampered) {
  tampered = false;
  if (injector_ == nullptr || tag_kind(tag) != TagKind::kHalo) return true;
  const std::uint64_t epoch = halo_epoch(tag);
  const int mu = halo_mu(tag);
  const int dir = halo_dir(tag);
  if (injector_->should_drop(epoch, dst_rank, mu, dir, attempt))
    return false;
  tampered = injector_->corrupt(buf, epoch, dst_rank, mu, dir, attempt);
  return true;
}

void Transport::send(int dst, std::uint64_t tag,
                     std::span<const std::byte> payload) {
  LQCD_REQUIRE(dst >= 0 && dst < size_, "transport send: rank out of range");
  wstats_.frames += 1;
  wstats_.payload_bytes += static_cast<std::int64_t>(payload.size());
  std::uint32_t crc = 0;
  if (resil_.checksum) {
    crc = crc32(payload.data(), payload.size());
    wstats_.checksum_bytes += static_cast<std::int64_t>(payload.size());
  }
  std::vector<std::byte> buf(payload.begin(), payload.end());
  bool tampered = false;
  const bool arrived = roll_send_faults(buf, tag, dst, 0, tampered);
  const std::uint32_t flags = arrived ? 0u : kFlagDropMarker;
  // Cache a pristine copy whenever this message could be NACKed back:
  // under an attached injector halo frames fail on schedule, and with
  // checksumming on, any frame can fail a genuine wire CRC check.
  const bool cacheable =
      resil_.checksum ||
      (injector_ != nullptr && tag_kind(tag) == TagKind::kHalo);
  if (dst == rank_) {
    // Self route: no wire, but the same fault/verify/redeliver protocol,
    // so grids with extent-1 process dimensions keep their schedules.
    Inbound f;
    f.flags = flags;
    f.crc = crc;
    f.maybe_clean = !tampered;
    if (cacheable) f.pristine.assign(payload.begin(), payload.end());
    if (arrived) f.payload = std::move(buf);
    self_inbox_[tag].push_back(std::move(f));
    return;
  }
  if (cacheable) stash_pristine(dst, tag, crc, payload);
  raw_send(dst, tag, flags, crc, tampered,
           arrived ? std::span<const std::byte>(buf)
                   : std::span<const std::byte>{},
           payload);
}

Transport::Inbound Transport::self_fetch(std::uint64_t tag) {
  auto it = self_inbox_.find(tag);
  LQCD_REQUIRE(it != self_inbox_.end() && !it->second.empty(),
               "transport recv: no matching self-send for tag");
  Inbound f = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) self_inbox_.erase(it);
  return f;
}

void Transport::deliver(int src, std::uint64_t tag, Inbound f,
                        std::vector<std::byte>& out) {
  int attempt = 0;
  for (;;) {
    const bool dropped = (f.flags & kFlagDropMarker) != 0;
    bool ok = !dropped;
    if (ok && resil_.checksum && !f.maybe_clean)
      ok = crc32(f.payload.data(), f.payload.size()) == f.crc;
    if (ok) {
      out = std::move(f.payload);
      return;
    }
    if (dropped)
      wstats_.timeouts += 1;
    else
      wstats_.crc_failures += 1;
    if (attempt >= resil_.max_retries)
      throw FatalError("transport: message from rank " +
                       std::to_string(src) + " (tag " + std::to_string(tag) +
                       ") unrecoverable after " +
                       std::to_string(attempt + 1) + " attempts");
    ++attempt;
    wstats_.retransmits += 1;
    wstats_.modeled_delay_us +=
        resil_.backoff_us * static_cast<double>(1 << (attempt - 1));
    f = src == rank_ ? local_redeliver(tag, attempt, std::move(f))
                     : redeliver(src, tag, attempt, std::move(f));
  }
}

void Transport::recv(int src, std::uint64_t tag,
                     std::vector<std::byte>& out) {
  LQCD_REQUIRE(src >= 0 && src < size_, "transport recv: rank out of range");
  Inbound f = src == rank_ ? self_fetch(tag) : raw_fetch(src, tag);
  deliver(src, tag, std::move(f), out);
}

bool Transport::try_recv(int src, std::uint64_t tag,
                         std::vector<std::byte>& out) {
  LQCD_REQUIRE(src >= 0 && src < size_, "transport recv: rank out of range");
  Inbound f;
  if (src == rank_) {
    const auto it = self_inbox_.find(tag);
    if (it == self_inbox_.end() || it->second.empty()) return false;
    f = self_fetch(tag);
  } else {
    if (!raw_try_fetch(src, tag, f)) return false;
  }
  deliver(src, tag, std::move(f), out);
  return true;
}

Transport::Inbound Transport::local_redeliver(std::uint64_t tag, int attempt,
                                              Inbound prev) {
  LQCD_ASSERT(!prev.pristine.empty() || prev.crc == 0,
              "transport: local redelivery without a pristine copy");
  Inbound f;
  f.crc = prev.crc;
  f.pristine = std::move(prev.pristine);
  f.payload = f.pristine;
  bool tampered = false;
  const bool arrived =
      roll_send_faults(f.payload, tag, rank_, attempt, tampered);
  f.flags = arrived ? 0u : kFlagDropMarker;
  if (!arrived) f.payload.clear();
  f.maybe_clean = !tampered;
  if (resil_.checksum)
    wstats_.checksum_bytes += static_cast<std::int64_t>(f.pristine.size());
  return f;
}

void Transport::stash_pristine(int dst, std::uint64_t tag, std::uint32_t crc,
                               std::span<const std::byte> payload) {
  const CacheKey key{dst, tag};
  if (pristine_cache_.find(key) == pristine_cache_.end()) {
    pristine_order_.push_back(key);
    while (pristine_order_.size() > kMaxPristineEntries) {
      pristine_cache_.erase(pristine_order_.front());
      pristine_order_.pop_front();
    }
  }
  CacheEntry& e = pristine_cache_[key];
  e.crc = crc;
  e.payload.assign(payload.begin(), payload.end());
}

void Transport::service_nack(int dst, std::uint64_t tag,
                             std::uint32_t attempt) {
  const auto it = pristine_cache_.find(CacheKey{dst, tag});
  if (it == pristine_cache_.end()) {
    // Evicted (or stale) entry: answer with a drop marker so the
    // receiver's bounded retry budget decides the outcome — a FatalError
    // over there once exhausted — instead of crashing this rank.
    raw_send(dst, tag, kFlagDropMarker, 0, false, {}, {});
    return;
  }
  std::vector<std::byte> buf = it->second.payload;
  bool tampered = false;
  const bool arrived = roll_send_faults(buf, tag, dst,
                                        static_cast<int>(attempt), tampered);
  if (resil_.checksum)
    wstats_.checksum_bytes +=
        static_cast<std::int64_t>(it->second.payload.size());
  raw_send(dst, tag, arrived ? 0u : kFlagDropMarker, it->second.crc,
           tampered,
           arrived ? std::span<const std::byte>(buf)
                   : std::span<const std::byte>{},
           it->second.payload);
}

void Transport::barrier() {
  const std::uint64_t tag = make_seq_tag(TagKind::kBarrier, barrier_seq_++);
  std::vector<std::byte> buf;
  if (rank_ == 0) {
    for (int r = 1; r < size_; ++r) recv(r, tag, buf);
    for (int r = 1; r < size_; ++r) send(r, tag, {});
  } else {
    send(0, tag, {});
    recv(0, tag, buf);
  }
}

void Transport::allreduce_sum(std::span<double> vals) {
  const std::uint64_t tag = make_seq_tag(TagKind::kReduce, reduce_seq_++);
  const std::size_t bytes = vals.size() * sizeof(double);
  std::vector<std::byte> buf;
  if (rank_ == 0) {
    for (int r = 1; r < size_; ++r) {
      recv(r, tag, buf);
      LQCD_REQUIRE(buf.size() == bytes,
                   "allreduce_sum: rank payload size mismatch");
      // Fixed rank-ascending accumulation: deterministic at fixed N.
      const double* p = reinterpret_cast<const double*>(buf.data());
      for (std::size_t i = 0; i < vals.size(); ++i) vals[i] += p[i];
    }
    for (int r = 1; r < size_; ++r)
      send(r, tag,
           std::span<const std::byte>(
               reinterpret_cast<const std::byte*>(vals.data()), bytes));
  } else {
    send(0, tag,
         std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(vals.data()), bytes));
    recv(0, tag, buf);
    LQCD_REQUIRE(buf.size() == bytes,
                 "allreduce_sum: root payload size mismatch");
    std::memcpy(vals.data(), buf.data(), bytes);
  }
}

std::vector<std::vector<std::byte>> Transport::gather(
    int root, std::span<const std::byte> mine) {
  LQCD_REQUIRE(root >= 0 && root < size_, "gather: root out of range");
  const std::uint64_t tag = make_seq_tag(TagKind::kGather, gather_seq_++);
  if (rank_ != root) {
    send(root, tag, mine);
    return {};
  }
  std::vector<std::vector<std::byte>> out(
      static_cast<std::size_t>(size_));
  out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
  for (int r = 0; r < size_; ++r) {
    if (r == root) continue;
    recv(r, tag, out[static_cast<std::size_t>(r)]);
  }
  return out;
}

void Transport::broadcast(int root, std::vector<std::byte>& data) {
  LQCD_REQUIRE(root >= 0 && root < size_, "broadcast: root out of range");
  const std::uint64_t tag = make_seq_tag(TagKind::kBcast, bcast_seq_++);
  if (rank_ == root) {
    for (int r = 0; r < size_; ++r)
      if (r != root) send(r, tag, data);
  } else {
    recv(root, tag, data);
  }
}

void Transport::drain() {
  self_inbox_.clear();
  pristine_cache_.clear();
  pristine_order_.clear();
  drain_backend();
}

std::unique_ptr<Transport> make_transport_from_env() {
  const char* kind = std::getenv("LQCD_TRANSPORT");
  if (kind == nullptr || *kind == '\0') return nullptr;
  const char* rank_s = std::getenv("LQCD_RANK");
  const char* size_s = std::getenv("LQCD_SIZE");
  LQCD_REQUIRE(rank_s != nullptr && size_s != nullptr,
               "LQCD_TRANSPORT set but LQCD_RANK/LQCD_SIZE missing");
  const int rank = std::atoi(rank_s);
  const int size = std::atoi(size_s);
  std::unique_ptr<StreamTransport> tp;
  switch (parse_transport_kind(kind)) {
    case TransportKind::kInProcess:
      throw Error(
          "LQCD_TRANSPORT=virtual is implicit; unset it to run "
          "single-process");
    case TransportKind::kSocket: {
      const char* host = std::getenv("LQCD_REND_HOST");
      const char* port = std::getenv("LQCD_REND_PORT");
      LQCD_REQUIRE(host != nullptr && port != nullptr,
                   "socket transport needs LQCD_REND_HOST/LQCD_REND_PORT");
      tp = std::make_unique<SocketTransport>(rank, size, host,
                                             std::atoi(port));
      break;
    }
    case TransportKind::kShm: {
      const char* path = std::getenv("LQCD_SHM_PATH");
      LQCD_REQUIRE(path != nullptr, "shm transport needs LQCD_SHM_PATH");
      tp = std::make_unique<ShmTransport>(rank, size, path);
      break;
    }
  }
  if (const char* t = std::getenv("LQCD_RECV_TIMEOUT_MS"))
    tp->set_recv_timeout_ms(std::atoi(t));
  return tp;
}

}  // namespace lqcd::transport
