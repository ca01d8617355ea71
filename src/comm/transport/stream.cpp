#include "comm/transport/stream.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace lqcd::transport {

namespace {
constexpr std::size_t kReadChunk = 1 << 16;
}  // namespace

StreamTransport::StreamTransport(int rank, int size)
    : Transport(rank, size),
      readers_(static_cast<std::size_t>(size)),
      outbox_(static_cast<std::size_t>(size)),
      read_buf_(kReadChunk) {}

std::string StreamTransport::who() const {
  return std::string(to_string(kind())) + " transport";
}

void StreamTransport::put_frame(int dst, std::uint64_t tag,
                                std::uint32_t flags, std::uint32_t crc,
                                std::span<const std::byte> payload) {
  if (!peer_alive(dst)) return;  // sends to the departed are dropped
  FrameHeader h;
  h.src = static_cast<std::uint32_t>(rank());
  h.dst = static_cast<std::uint32_t>(dst);
  h.flags = flags;
  h.tag = tag;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc;
  std::byte hdr[kFrameHeaderBytes];
  encode_header(hdr, h);
  wstats_.wire_frames += 1;
  wstats_.wire_bytes +=
      static_cast<std::int64_t>(kFrameHeaderBytes + payload.size());
  // Bytes spilled earlier go first; this frame may only enter the stream
  // directly once nothing is queued ahead of it.
  flush_outbox(dst);
  Outbox& ob = outbox_[static_cast<std::size_t>(dst)];
  const std::size_t taken =
      ob.chunks.empty() ? write_some(dst, {hdr, kFrameHeaderBytes}, payload)
                        : 0;
  if (taken == kFrameHeaderBytes + payload.size() || !peer_alive(dst))
    return;
  // Spill the rest as one chunk: header remainder, then payload remainder.
  const std::size_t in_hdr = std::min(taken, kFrameHeaderBytes);
  const auto in_body = static_cast<std::ptrdiff_t>(taken - in_hdr);
  std::vector<std::byte> rest;
  rest.reserve(kFrameHeaderBytes + payload.size() - taken);
  rest.insert(rest.end(), hdr + in_hdr, hdr + kFrameHeaderBytes);
  rest.insert(rest.end(), payload.begin() + in_body, payload.end());
  ob.chunks.push_back(std::move(rest));
}

bool StreamTransport::flush_outbox(int dst) {
  Outbox& ob = outbox_[static_cast<std::size_t>(dst)];
  bool moved = false;
  while (!ob.chunks.empty() && peer_alive(dst)) {
    const std::vector<std::byte>& front = ob.chunks.front();
    const std::size_t w =
        write_some(dst, {front.data() + ob.off, front.size() - ob.off}, {});
    if (w == 0) break;
    moved = true;
    ob.off += w;
    if (ob.off == front.size()) {
      ob.chunks.pop_front();
      ob.off = 0;
    }
  }
  if (!ob.chunks.empty() && !peer_alive(dst)) {
    ob.chunks.clear();  // consumer gone: the bytes die with it
    ob.off = 0;
  }
  return moved;
}

bool StreamTransport::pump() {
  bool moved = false;
  for (int dst = 0; dst < size(); ++dst)
    if (dst != rank()) moved = flush_outbox(dst) || moved;
  for (int src = 0; src < size(); ++src) {
    if (src == rank()) continue;
    FrameReader& reader = readers_[static_cast<std::size_t>(src)];
    for (;;) {
      const std::size_t n = read_some(src, read_buf_);
      if (n == 0) break;
      reader.feed({read_buf_.data(), n});
      moved = true;
      if (n < read_buf_.size()) break;
    }
    dispatch(src);
  }
  return moved;
}

void StreamTransport::dispatch(int src) {
  FrameReader& reader = readers_[static_cast<std::size_t>(src)];
  FrameHeader h;
  std::vector<std::byte> payload;
  while (reader.next(h, payload)) {
    LQCD_REQUIRE(static_cast<int>(h.dst) == rank(),
                 who() + ": misrouted frame");
    LQCD_REQUIRE(static_cast<int>(h.src) == src,
                 who() + ": frame src does not match its stream");
    if (h.flags & kFlagNack) {
      LQCD_REQUIRE(payload.size() == sizeof(std::uint32_t),
                   who() + ": malformed NACK");
      std::uint32_t attempt;
      std::memcpy(&attempt, payload.data(), sizeof attempt);
      service_nack(src, h.tag, attempt);
      continue;
    }
    Inbound f;
    f.flags = h.flags;
    f.crc = h.payload_crc;
    f.maybe_clean = false;  // a real wire always verifies
    f.payload = std::move(payload);
    inbox_[InboxKey{src, h.tag}].push_back(std::move(f));
    payload = {};
  }
}

bool StreamTransport::inbox_pop(int src, std::uint64_t tag, Inbound& out) {
  const auto it = inbox_.find(InboxKey{src, tag});
  if (it == inbox_.end() || it->second.empty()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) inbox_.erase(it);
  return true;
}

void StreamTransport::raw_send(int dst, std::uint64_t tag,
                               std::uint32_t flags, std::uint32_t crc,
                               bool tampered,
                               std::span<const std::byte> wire,
                               std::span<const std::byte> pristine) {
  (void)tampered;
  (void)pristine;  // NACK service re-reads the base-class cache
  put_frame(dst, tag, flags, crc, wire);
}

Transport::Inbound StreamTransport::raw_fetch(int src, std::uint64_t tag) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      recv_timeout_ms_ > 0
          ? Clock::now() + std::chrono::milliseconds(recv_timeout_ms_)
          : Clock::time_point::max();
  Inbound f;
  auto idle_since = Clock::now();
  for (;;) {
    if (inbox_pop(src, tag, f)) return f;
    const bool moved = pump();
    if (inbox_pop(src, tag, f)) return f;
    // Drain-then-fail: the peer is dead and pump() moved nothing, so
    // every complete frame it left behind has been dispatched. Any
    // residue still in the reader is a torn frame from a producer that
    // died mid-write — it can never complete, so fail now rather than
    // wait for bytes that will never arrive.
    if (!peer_alive(src) && !moved)
      throw TransientError(
          who() + ": rank " + std::to_string(src) +
          " died before delivering tag " + std::to_string(tag) +
          (readers_[static_cast<std::size_t>(src)].buffered() != 0
               ? " (torn frame left in stream)"
               : ""));
    const auto now = Clock::now();
    if (now >= deadline)
      throw TransientError(who() + ": timed out waiting for rank " +
                           std::to_string(src));
    if (moved)
      idle_since = now;
    else
      wait(now - idle_since);
  }
}

bool StreamTransport::raw_try_fetch(int src, std::uint64_t tag, Inbound& out) {
  if (inbox_pop(src, tag, out)) return true;
  pump();
  return inbox_pop(src, tag, out);
}

Transport::Inbound StreamTransport::redeliver(int src, std::uint64_t tag,
                                              int attempt, Inbound prev) {
  (void)prev;
  // Receiver-driven retransmit: NACK the sender, who re-rolls the fault
  // schedule over its pristine copy and re-sends.
  const auto a = static_cast<std::uint32_t>(attempt);
  std::byte buf[sizeof a];
  std::memcpy(buf, &a, sizeof a);
  put_frame(src, tag, kFlagNack, 0, {buf, sizeof a});
  return raw_fetch(src, tag);
}

void StreamTransport::drain_backend() {
  pump();
  inbox_.clear();
}

void StreamTransport::flush_on_close() noexcept {
  // Pumping (not just flushing) keeps a peer that is itself flushing
  // toward us moving, and keeps unread input from waking wait() at once.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  auto idle_since = Clock::now();
  try {
    for (;;) {
      bool pending = false;
      for (int dst = 0; dst < size(); ++dst)
        if (dst != rank() && outbox_pending(dst)) pending = true;
      const auto now = Clock::now();
      if (!pending || now >= deadline) return;
      if (pump())
        idle_since = now;
      else
        wait(now - idle_since);
    }
  } catch (const Error&) {
    // A garbled inbound stream: give up on the flush, not the process.
  }
}

}  // namespace lqcd::transport
