// Tests for lqcd::transport — the frame codec, the three backends
// behind one SPMD thread harness, fault-schedule parity across
// backends, the SPMD rank operators on rank threads against the virtual
// cluster, and the death/budget error contract the campaign layers
// key on (TransientError = peer gone / timed out, FatalError = retry
// budget exhausted). The socket backend runs over real loopback TCP
// built by the same listen_loopback()/rendezvous_serve() pair
// lqcd_launch uses; the shm backend over a real mmapped segment file.
// The whole file runs under the ASan+UBSan config.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "comm/dist_eo.hpp"
#include "comm/fault.hpp"
#include "comm/halo.hpp"
#include "comm/process_grid.hpp"
#include "comm/transport/frame.hpp"
#include "comm/transport/inprocess.hpp"
#include "comm/transport/rank_halo.hpp"
#include "comm/transport/shm.hpp"
#include "comm/transport/socket.hpp"
#include "comm/transport/stream.hpp"
#include "comm/transport/transport.hpp"
#include "parallel/thread_pool.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lqcd {
namespace {

namespace tr = transport;

std::vector<std::byte> make_payload(std::size_t n, unsigned salt = 0) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::byte>((i * 31u + 7u + salt) & 0xFF);
  return p;
}

std::uint64_t ctrl_tag(std::uint64_t seq) {
  return tr::make_seq_tag(tr::TagKind::kCtrl, seq);
}

void fill_gaussian(std::span<WilsonSpinorD> f, std::uint64_t seed) {
  SiteRngFactory rngs(seed);
  for (std::size_t i = 0; i < f.size(); ++i) {
    CounterRng rng = rngs.make(i);
    for (int s = 0; s < Ns; ++s)
      for (int c = 0; c < Nc; ++c)
        f[i].s[s].c[c] = Cplxd(rng.gaussian(), rng.gaussian());
  }
}

// --- frame codec ------------------------------------------------------

TEST(TransportFrame, HeaderRoundTrip) {
  tr::FrameHeader h;
  h.src = 3;
  h.dst = 11;
  h.flags = tr::kFlagDropMarker;
  h.tag = tr::make_halo_tag(123456789, 2, -1);
  h.payload_len = 77;
  h.payload_crc = 0xdeadbeef;
  std::byte wire[tr::kFrameHeaderBytes];
  tr::encode_header(wire, h);
  const tr::FrameHeader d = tr::decode_header(wire);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.flags, h.flags);
  EXPECT_EQ(d.tag, h.tag);
  EXPECT_EQ(d.payload_len, h.payload_len);
  EXPECT_EQ(d.payload_crc, h.payload_crc);
}

TEST(TransportFrame, BadMagicThrows) {
  std::byte wire[tr::kFrameHeaderBytes] = {};
  tr::FrameHeader h;
  tr::encode_header(wire, h);
  wire[1] = std::byte{0x00};  // clobber the magic
  EXPECT_THROW((void)tr::decode_header(wire), Error);
}

TEST(TransportFrame, AbsurdPayloadLengthThrows) {
  tr::FrameHeader h;
  h.payload_len = tr::kMaxFramePayload + 1;
  std::byte wire[tr::kFrameHeaderBytes];
  tr::encode_header(wire, h);
  EXPECT_THROW((void)tr::decode_header(wire), Error);
}

TEST(TransportFrame, HaloTagRoundTrip) {
  const std::uint64_t tag = tr::make_halo_tag(0xABCDEF012345ull, 3, +1);
  EXPECT_EQ(tr::tag_kind(tag), tr::TagKind::kHalo);
  EXPECT_EQ(tr::halo_epoch(tag), 0xABCDEF012345ull);
  EXPECT_EQ(tr::halo_mu(tag), 3);
  EXPECT_EQ(tr::halo_dir(tag), +1);
  const std::uint64_t neg = tr::make_halo_tag(7, 0, -1);
  EXPECT_EQ(tr::halo_mu(neg), 0);
  EXPECT_EQ(tr::halo_dir(neg), -1);
}

TEST(TransportFrame, SeqTagRoundTrip) {
  const std::uint64_t tag = tr::make_seq_tag(tr::TagKind::kResult, 42);
  EXPECT_EQ(tr::tag_kind(tag), tr::TagKind::kResult);
  EXPECT_EQ(tr::seq_of(tag), 42u);
}

// Feed a multi-frame stream one byte at a time: every frame must come
// out intact, regardless of how the wire tears the chunks.
TEST(TransportFrame, TornStreamReassembles) {
  const std::vector<std::size_t> sizes{0, 1, 333, 4096};
  std::vector<std::byte> stream;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<std::byte> p = make_payload(sizes[i], 0x40u + i);
    tr::FrameHeader h;
    h.src = static_cast<std::uint32_t>(i);
    h.dst = 1;
    h.tag = ctrl_tag(i);
    h.payload_len = static_cast<std::uint32_t>(p.size());
    h.payload_crc = crc32(p.data(), p.size());
    std::byte hdr[tr::kFrameHeaderBytes];
    tr::encode_header(hdr, h);
    stream.insert(stream.end(), hdr, hdr + tr::kFrameHeaderBytes);
    stream.insert(stream.end(), p.begin(), p.end());
  }
  tr::FrameReader reader;
  std::size_t got = 0;
  tr::FrameHeader h;
  std::vector<std::byte> payload;
  for (const std::byte b : stream) {
    reader.feed({&b, 1});
    while (reader.next(h, payload)) {
      ASSERT_LT(got, sizes.size());
      EXPECT_EQ(h.src, got);
      EXPECT_EQ(h.tag, ctrl_tag(got));
      EXPECT_EQ(payload, make_payload(sizes[got], 0x40u + got));
      ++got;
    }
  }
  EXPECT_EQ(got, sizes.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

// A short frame (peer died mid-write) never parses, and the residue is
// visible — the EOF handler's torn-frame signal.
TEST(TransportFrame, ShortFrameLeavesResidue) {
  const std::vector<std::byte> p = make_payload(256);
  tr::FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(p.size());
  std::byte hdr[tr::kFrameHeaderBytes];
  tr::encode_header(hdr, h);
  tr::FrameReader reader;
  reader.feed({hdr, tr::kFrameHeaderBytes});
  reader.feed({p.data(), 100});  // stream ends mid-payload
  tr::FrameHeader out;
  std::vector<std::byte> payload;
  EXPECT_FALSE(reader.next(out, payload));
  EXPECT_EQ(reader.buffered(), tr::kFrameHeaderBytes + 100);
  // A bare partial header is equally torn.
  tr::FrameReader r2;
  r2.feed({hdr, 10});
  EXPECT_FALSE(r2.next(out, payload));
  EXPECT_EQ(r2.buffered(), 10u);
}

// --- SPMD thread harness ---------------------------------------------

using MakeTransport =
    std::function<std::unique_ptr<tr::Transport>(int rank)>;
using RankBody = std::function<void(int rank, tr::Transport& tp)>;

/// Run `body` on n rank-threads, each with its own endpoint built
/// *inside* the thread (the socket mesh handshake needs the
/// constructors to overlap). First exception wins and is rethrown.
void run_spmd(int n, const MakeTransport& make, const RankBody& body) {
  std::vector<std::thread> ts;
  std::vector<std::exception_ptr> errs(static_cast<std::size_t>(n));
  ts.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    ts.emplace_back([&, r] {
      try {
        std::unique_ptr<tr::Transport> tp = make(r);
        body(r, *tp);
      } catch (...) {
        errs[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (auto& t : ts) t.join();
  for (const std::exception_ptr& e : errs)
    if (e) std::rethrow_exception(e);
}

MakeTransport inprocess_world(int n) {
  auto eps = std::make_shared<
      std::vector<std::unique_ptr<tr::Transport>>>(
      tr::make_inprocess_group(n));
  return [eps](int r) {
    return std::move((*eps)[static_cast<std::size_t>(r)]);
  };
}

/// A positive `recv_timeout_ms` applies to `timeout_rank` only, so the
/// rank under test times out while its peers wait indefinitely.
std::unique_ptr<tr::Transport> with_timeout(
    std::unique_ptr<tr::StreamTransport> tp, int recv_timeout_ms,
    int timeout_rank) {
  if (recv_timeout_ms > 0 && tp->rank() == timeout_rank)
    tp->set_recv_timeout_ms(recv_timeout_ms);
  return tp;
}

/// Real loopback TCP world: the test process runs the same rendezvous
/// lqcd_launch serves, and each rank thread builds its mesh endpoint.
class SocketWorld {
 public:
  explicit SocketWorld(int n) : n_(n) {
    fd_ = tr::listen_loopback(port_);
    serve_ = std::thread([this] { tr::rendezvous_serve(fd_, n_); });
  }
  ~SocketWorld() {
    serve_.join();
    close(fd_);
  }
  [[nodiscard]] MakeTransport make(int recv_timeout_ms = -1,
                                   int timeout_rank = 0) const {
    const int port = port_;
    const int n = n_;
    return [port, n, recv_timeout_ms, timeout_rank](int r) {
      return with_timeout(
          std::make_unique<tr::SocketTransport>(r, n, "127.0.0.1", port),
          recv_timeout_ms, timeout_rank);
    };
  }

 private:
  int n_;
  int fd_ = -1;
  int port_ = 0;
  std::thread serve_;
};

/// Real mmapped-segment world, one file per test.
class ShmWorld {
 public:
  ShmWorld(int n, std::uint32_t ring_bytes = tr::kShmDefaultRingBytes)
      : n_(n) {
    static int counter = 0;
    path_ = "/tmp/lqcd_test_shm." + std::to_string(getpid()) + "." +
            std::to_string(counter++);
    tr::shm_create(path_, n, ring_bytes);
  }
  ~ShmWorld() { unlink(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] MakeTransport make(int recv_timeout_ms = -1,
                                   int timeout_rank = 0) const {
    const std::string path = path_;
    const int n = n_;
    return [path, n, recv_timeout_ms, timeout_rank](int r) {
      return with_timeout(std::make_unique<tr::ShmTransport>(r, n, path),
                          recv_timeout_ms, timeout_rank);
    };
  }

 private:
  int n_;
  std::string path_;
};

// --- point-to-point and collectives ----------------------------------

TEST(InProcessTransport, SendRecvAndTryRecv) {
  auto eps = tr::make_inprocess_group(2);
  const std::vector<std::byte> p = make_payload(100);
  std::vector<std::byte> got;
  EXPECT_FALSE(eps[1]->try_recv(0, ctrl_tag(0), got));
  eps[0]->send(1, ctrl_tag(0), p);
  eps[0]->send(1, ctrl_tag(1), make_payload(5, 9));
  eps[1]->recv(0, ctrl_tag(0), got);
  EXPECT_EQ(got, p);
  EXPECT_TRUE(eps[1]->try_recv(0, ctrl_tag(1), got));
  EXPECT_EQ(got, make_payload(5, 9));
  EXPECT_FALSE(eps[1]->try_recv(0, ctrl_tag(2), got));
}

TEST(InProcessTransport, SelfSendCountsZeroWireBytes) {
  auto eps = tr::make_inprocess_group(2);
  const std::vector<std::byte> p = make_payload(64);
  eps[0]->send(0, ctrl_tag(0), p);
  std::vector<std::byte> got;
  eps[0]->recv(0, ctrl_tag(0), got);
  EXPECT_EQ(got, p);
  EXPECT_EQ(eps[0]->wire_stats().frames, 1);
  EXPECT_EQ(eps[0]->wire_stats().payload_bytes, 64);
  EXPECT_EQ(eps[0]->wire_stats().wire_frames, 0);
  EXPECT_EQ(eps[0]->wire_stats().wire_bytes, 0);
}

TEST(InProcessTransport, MessagesWithSameTagFromDifferentPeersKeepApart) {
  auto eps = tr::make_inprocess_group(3);
  eps[1]->send(0, ctrl_tag(0), make_payload(8, 1));
  eps[2]->send(0, ctrl_tag(0), make_payload(8, 2));
  std::vector<std::byte> got;
  eps[0]->recv(2, ctrl_tag(0), got);
  EXPECT_EQ(got, make_payload(8, 2));
  eps[0]->recv(1, ctrl_tag(0), got);
  EXPECT_EQ(got, make_payload(8, 1));
}

void collective_drill(int n, const MakeTransport& make) {
  const std::size_t m = 16;
  std::vector<std::vector<double>> reduced(static_cast<std::size_t>(n));
  std::vector<std::vector<std::vector<std::byte>>> gathered(
      static_cast<std::size_t>(n));
  std::vector<std::vector<std::byte>> bcast(static_cast<std::size_t>(n));
  run_spmd(n, make, [&](int r, tr::Transport& tp) {
    tp.barrier();
    // Allreduce: nontrivial doubles, bitwise-checked below.
    std::vector<double> v(m);
    for (std::size_t i = 0; i < m; ++i)
      v[i] = (r + 1) * 0.1 + static_cast<double>(i) * 1e-7;
    tp.allreduce_sum(v);
    reduced[static_cast<std::size_t>(r)] = v;
    // Gather: rank r contributes r+1 salted bytes.
    const std::vector<std::byte> mine =
        make_payload(static_cast<std::size_t>(r) + 1,
                     static_cast<unsigned>(r));
    gathered[static_cast<std::size_t>(r)] = tp.gather(0, mine);
    // Broadcast from rank 1.
    std::vector<std::byte> b;
    if (r == 1) b = make_payload(33, 77);
    tp.broadcast(1, b);
    bcast[static_cast<std::size_t>(r)] = b;
    tp.barrier();
  });
  // Allreduce is the fixed rank-ascending sum, identical on every rank.
  std::vector<double> expect(m);
  for (std::size_t i = 0; i < m; ++i)
    expect[i] = 1 * 0.1 + static_cast<double>(i) * 1e-7;
  for (int r = 1; r < n; ++r)
    for (std::size_t i = 0; i < m; ++i)
      expect[i] += (r + 1) * 0.1 + static_cast<double>(i) * 1e-7;
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(reduced[static_cast<std::size_t>(r)].size(), m);
    EXPECT_EQ(std::memcmp(reduced[static_cast<std::size_t>(r)].data(),
                          expect.data(), m * sizeof(double)),
              0)
        << "allreduce not bitwise deterministic on rank " << r;
  }
  // Gather: root got every rank's bytes in rank order, others nothing.
  ASSERT_EQ(gathered[0].size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(gathered[0][static_cast<std::size_t>(r)],
              make_payload(static_cast<std::size_t>(r) + 1,
                           static_cast<unsigned>(r)));
  for (int r = 1; r < n; ++r)
    EXPECT_TRUE(gathered[static_cast<std::size_t>(r)].empty());
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(bcast[static_cast<std::size_t>(r)], make_payload(33, 77));
}

TEST(TransportCollectives, InProcess) {
  collective_drill(4, inprocess_world(4));
}

TEST(TransportCollectives, Socket) {
  SocketWorld w(3);
  collective_drill(3, w.make());
}

TEST(TransportCollectives, Shm) {
  ShmWorld w(3);
  collective_drill(3, w.make());
}

// --- halo exchange parity across backends ----------------------------

struct RankOutcome {
  std::uint32_t field_crc = 0;  // whole extended field, ghosts included
  CommStats stats;
};

/// One halo-exchange campaign on an n-rank world: every rank extracts
/// its interior from the same deterministic global field, exchanges
/// `exchanges` times under `injector`'s schedule, and reports the CRC
/// of its full extended field plus its comm counters.
std::vector<RankOutcome> exchange_drill(int n, const MakeTransport& make,
                                        FaultInjector* injector,
                                        int exchanges,
                                        int max_retries = 3,
                                        HaloPrecision prec =
                                            HaloPrecision::kFull) {
  const LatticeGeometry geo({4, 4, 4, 8});
  const ProcessGrid grid(choose_grid(geo.dims(), n));
  const auto vol = static_cast<std::size_t>(geo.volume());
  std::vector<RankOutcome> out(static_cast<std::size_t>(n));
  run_spmd(n, make, [&](int r, tr::Transport& tp) {
    RankCluster<double> cl(geo, grid, tp);
    ResilienceConfig rc;
    rc.checksum = true;
    rc.max_retries = max_retries;
    cl.set_resilience(rc);
    cl.set_halo_precision(prec);
    if (injector != nullptr) cl.set_fault_injector(injector);
    aligned_vector<WilsonSpinorD> src(vol);
    fill_gaussian({src.data(), vol}, 99);
    auto f = cl.make_fermion();
    cl.extract_local(f, {src.data(), vol});
    for (int e = 0; e < exchanges; ++e) cl.exchange(f);
    RankOutcome& o = out[static_cast<std::size_t>(r)];
    o.field_crc = crc32(f.data(), f.size() * sizeof(WilsonSpinorD));
    o.stats = cl.stats();
    tp.barrier();
  });
  return out;
}

void expect_same_outcomes(const std::vector<RankOutcome>& a,
                          const std::vector<RankOutcome>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].field_crc, b[r].field_crc)
        << what << ": ghost bytes differ on rank " << r;
    EXPECT_EQ(a[r].stats.messages, b[r].stats.messages) << what;
    EXPECT_EQ(a[r].stats.bytes, b[r].stats.bytes) << what;
    EXPECT_EQ(a[r].stats.timeouts, b[r].stats.timeouts) << what;
    EXPECT_EQ(a[r].stats.crc_failures, b[r].stats.crc_failures) << what;
    EXPECT_EQ(a[r].stats.retransmits, b[r].stats.retransmits) << what;
  }
}

TEST(TransportParity, CleanExchangeIdenticalAcrossBackends) {
  const int n = 2;
  const int reps = 3;
  const auto in_proc = exchange_drill(n, inprocess_world(n), nullptr,
                                      reps);
  SocketWorld sw(n);
  const auto sock = exchange_drill(n, sw.make(), nullptr, reps);
  ShmWorld hw(n);
  const auto shm = exchange_drill(n, hw.make(), nullptr, reps);
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess");
  // Exact wire accounting, identical on every backend: grid {1,1,1,2}
  // puts only the two T faces on the wire (4*4*4 sites * 192 B + 32 B
  // header each); the six self faces count zero.
  const std::int64_t face = 4 * 4 * 4 * 192 + 32;
  for (const auto* world : {&in_proc, &sock, &shm}) {
    for (const RankOutcome& o : *world) {
      EXPECT_EQ(o.stats.wire_frames, 2 * reps);
      EXPECT_EQ(o.stats.wire_bytes, 2 * reps * face);
      EXPECT_EQ(o.stats.messages, 8 * reps);
      EXPECT_EQ(o.stats.retransmits, 0);
    }
  }
}

/// The scripted schedule must fire identically on every backend: one
/// drop (marker frame -> NACK -> retransmit on the wire backends, local
/// re-roll in process) on messages *to* rank 0.
TEST(TransportParity, DropScheduleFiresIdentically) {
  const int n = 2;
  const auto drill = [&](const MakeTransport& make) {
    FaultInjector fi(2024);
    FaultSpec drop;
    drop.drop_prob = 1.0;
    drop.last_epoch = 0;  // first exchange only
    fi.set_rank_spec(0, drop);
    fi.set_event_budget(1);
    return exchange_drill(n, make, &fi, 2);
  };
  const auto in_proc = drill(inprocess_world(n));
  SocketWorld sw(n);
  const auto sock = drill(sw.make());
  ShmWorld hw(n);
  const auto shm = drill(hw.make());
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess");
  // Receiver rank 0 saw exactly one drop and recovered it.
  EXPECT_EQ(in_proc[0].stats.timeouts, 1);
  EXPECT_EQ(in_proc[0].stats.retransmits, 1);
  EXPECT_EQ(in_proc[0].stats.crc_failures, 0);
  EXPECT_EQ(in_proc[1].stats.timeouts, 0);
  // And the recovered ghosts match a clean run bit for bit.
  const auto clean = exchange_drill(n, inprocess_world(n), nullptr, 2);
  EXPECT_EQ(in_proc[0].field_crc, clean[0].field_crc);
  EXPECT_EQ(in_proc[1].field_crc, clean[1].field_crc);
}

/// Same for corruption: CRC verify catches it, retransmit delivers the
/// pristine payload from the sender's cache.
TEST(TransportParity, CorruptionCaughtAndHealedIdentically) {
  const int n = 2;
  const auto drill = [&](const MakeTransport& make) {
    FaultInjector fi(77);
    FaultSpec corrupt;
    corrupt.corrupt_prob = 1.0;
    corrupt.last_epoch = 0;
    fi.set_rank_spec(0, corrupt);
    fi.set_event_budget(1);
    return exchange_drill(n, make, &fi, 2);
  };
  const auto in_proc = drill(inprocess_world(n));
  SocketWorld sw(n);
  const auto sock = drill(sw.make());
  ShmWorld hw(n);
  const auto shm = drill(hw.make());
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess");
  EXPECT_EQ(in_proc[0].stats.crc_failures, 1);
  EXPECT_EQ(in_proc[0].stats.retransmits, 1);
  EXPECT_EQ(in_proc[0].stats.timeouts, 0);
  const auto clean = exchange_drill(n, inprocess_world(n), nullptr, 2);
  EXPECT_EQ(in_proc[0].field_crc, clean[0].field_crc);
  EXPECT_EQ(in_proc[1].field_crc, clean[1].field_crc);
}

// --- the same parity drills with compressed (half-precision) halos ---

/// Clean compressed exchange: the int16 block-float frames must be
/// byte-identical on every backend (the codec is T-independent and
/// deterministic), so the reconstructed ghost fields carry the same CRC
/// and the wire accounting shrinks to 52 B/site exactly.
TEST(TransportParity, CompressedCleanExchangeIdenticalAcrossBackends) {
  const int n = 2;
  const int reps = 3;
  const auto half = [&](const MakeTransport& make) {
    return exchange_drill(n, make, nullptr, reps, 3, HaloPrecision::kHalf);
  };
  const auto in_proc = half(inprocess_world(n));
  SocketWorld sw(n);
  const auto sock = half(sw.make());
  ShmWorld hw(n);
  const auto shm = half(hw.make());
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess[half]");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess[half]");
  // Compressed wire accounting: 4*4*4 face sites at 52 B (float scale +
  // 24 int16) + 32 B header, against 192 B/site at full precision.
  const std::int64_t face = 4 * 4 * 4 * 52 + 32;
  const std::int64_t full_face_payload = 4 * 4 * 4 * 192;
  for (const auto* world : {&in_proc, &sock, &shm}) {
    for (const RankOutcome& o : *world) {
      EXPECT_EQ(o.stats.wire_frames, 2 * reps);
      EXPECT_EQ(o.stats.wire_bytes, 2 * reps * face);
      EXPECT_EQ(o.stats.compressed_frames, 8 * reps);
      EXPECT_EQ(o.stats.full_equiv_bytes, 8 * reps * full_face_payload);
      EXPECT_EQ(o.stats.retransmits, 0);
    }
  }
  // Quantization must actually have happened: the reconstructed ghosts
  // differ from the full-precision run's.
  const auto full = exchange_drill(n, inprocess_world(n), nullptr, reps);
  EXPECT_NE(in_proc[0].field_crc, full[0].field_crc);
}

/// Scripted drop with compressed frames: the NACK/retransmit protocol
/// is payload-agnostic, so the recovery fires identically on every
/// backend and heals to the clean compressed ghosts bit for bit.
TEST(TransportParity, CompressedDropScheduleFiresIdentically) {
  const int n = 2;
  const auto drill = [&](const MakeTransport& make) {
    FaultInjector fi(2024);
    FaultSpec drop;
    drop.drop_prob = 1.0;
    drop.last_epoch = 0;
    fi.set_rank_spec(0, drop);
    fi.set_event_budget(1);
    return exchange_drill(n, make, &fi, 2, 3, HaloPrecision::kHalf);
  };
  const auto in_proc = drill(inprocess_world(n));
  SocketWorld sw(n);
  const auto sock = drill(sw.make());
  ShmWorld hw(n);
  const auto shm = drill(hw.make());
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess[half]");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess[half]");
  EXPECT_EQ(in_proc[0].stats.timeouts, 1);
  EXPECT_EQ(in_proc[0].stats.retransmits, 1);
  EXPECT_EQ(in_proc[0].stats.crc_failures, 0);
  const auto clean = exchange_drill(n, inprocess_world(n), nullptr, 2, 3,
                                    HaloPrecision::kHalf);
  EXPECT_EQ(in_proc[0].field_crc, clean[0].field_crc);
  EXPECT_EQ(in_proc[1].field_crc, clean[1].field_crc);
}

/// Corrupted compressed frame: the CRC covers the int16 payload the
/// same as a full one; verify-fail -> NACK -> pristine retransmit from
/// the sender's cache, identically on every backend.
TEST(TransportParity, CompressedCorruptionCaughtAndHealedIdentically) {
  const int n = 2;
  const auto drill = [&](const MakeTransport& make) {
    FaultInjector fi(77);
    FaultSpec corrupt;
    corrupt.corrupt_prob = 1.0;
    corrupt.last_epoch = 0;
    fi.set_rank_spec(0, corrupt);
    fi.set_event_budget(1);
    return exchange_drill(n, make, &fi, 2, 3, HaloPrecision::kHalf);
  };
  const auto in_proc = drill(inprocess_world(n));
  SocketWorld sw(n);
  const auto sock = drill(sw.make());
  ShmWorld hw(n);
  const auto shm = drill(hw.make());
  expect_same_outcomes(in_proc, sock, "socket-vs-inprocess[half]");
  expect_same_outcomes(in_proc, shm, "shm-vs-inprocess[half]");
  EXPECT_EQ(in_proc[0].stats.crc_failures, 1);
  EXPECT_EQ(in_proc[0].stats.retransmits, 1);
  EXPECT_EQ(in_proc[0].stats.timeouts, 0);
  const auto clean = exchange_drill(n, inprocess_world(n), nullptr, 2, 3,
                                    HaloPrecision::kHalf);
  EXPECT_EQ(in_proc[0].field_crc, clean[0].field_crc);
  EXPECT_EQ(in_proc[1].field_crc, clean[1].field_crc);
}

// --- SPMD oracle: rank operators on rank threads vs the virtual cluster --

/// Pins the fork-join pool to one worker for the scope: rank threads
/// sharing the process-wide pool would race run_chunks.
struct SerialPool {
  SerialPool() { ThreadPool::set_global_threads(1); }
  ~SerialPool() { ThreadPool::set_global_threads(0); }
  SerialPool(const SerialPool&) = delete;
  SerialPool& operator=(const SerialPool&) = delete;
};

struct OracleCase {
  Coord grid;
  bool schur;
  HaloPrecision prec;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << (c.schur ? "Schur_" : "Wilson_") << to_string(c.prec) << "_grid";
  for (const int g : c.grid) *os << g;
}

class SpmdOracle : public ::testing::TestWithParam<OracleCase> {};

/// The rank operators, one thread per rank over an in-process group,
/// gathered at rank 0, must reproduce the 1-process Distributed*
/// operators bit for bit — the same contract the launcher drills check
/// with CRCs over socket and shm, here inside tier-1.
TEST_P(SpmdOracle, RankOperatorsMatchVirtualBitForBit) {
  const OracleCase& c = GetParam();
  const LatticeGeometry geo({8, 4, 4, 8});
  const ProcessGrid grid(c.grid);
  GaugeFieldD u(geo);
  u.set_random(SiteRngFactory(4400));
  const double kappa = 0.12;
  const int reps = 2;
  const auto vol = static_cast<std::size_t>(geo.volume());
  // Schur operators act on the odd checkerboard: the source fills the
  // odd block (the back half in cb layout) and the even block is zero.
  const std::size_t lo = c.schur ? static_cast<std::size_t>(geo.half_volume())
                                 : 0;
  aligned_vector<WilsonSpinorD> src(vol);
  fill_gaussian({src.data() + lo, vol - lo}, 4401);

  // Virtual reference: `reps` applies, each output feeding the next.
  aligned_vector<WilsonSpinorD> want(src.begin() + static_cast<long>(lo),
                                     src.end());
  aligned_vector<WilsonSpinorD> tmp(want.size());
  const auto virtual_run = [&](auto& op) {
    op.set_halo_precision(c.prec);
    for (int k = 0; k < reps; ++k) {
      op.apply({tmp.data(), tmp.size()}, {want.data(), want.size()});
      std::swap(want, tmp);
    }
  };
  if (c.schur) {
    DistributedSchurWilsonOperator<double> op(u, kappa, grid);
    virtual_run(op);
  } else {
    DistributedWilsonOperator<double> op(u, kappa, grid);
    virtual_run(op);
  }

  aligned_vector<WilsonSpinorD> got(vol);
  const auto rank_run = [&](auto& op, tr::Transport& tp) {
    op.set_halo_precision(c.prec);
    auto& cl = op.cluster();
    auto in = cl.make_fermion();
    auto out = cl.make_fermion();
    cl.extract_local(in, {src.data(), vol});
    for (int k = 0; k < reps; ++k) {
      op.apply(out, in);
      std::swap(in, out);
    }
    cl.gather_to_root({got.data(), tp.rank() == 0 ? vol : 0}, in);
  };
  {
    const SerialPool serial;
    run_spmd(grid.size(), inprocess_world(grid.size()),
             [&](int, tr::Transport& tp) {
               if (c.schur) {
                 RankSchurWilsonOperator<double> op(u, kappa, grid, tp);
                 rank_run(op, tp);
               } else {
                 RankWilsonOperator<double> op(u, kappa, grid, tp);
                 rank_run(op, tp);
               }
             });
  }
  EXPECT_EQ(std::memcmp(got.data() + lo, want.data(),
                        want.size() * sizeof(WilsonSpinorD)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SpmdOracle,
    ::testing::Values(
        OracleCase{{2, 1, 1, 2}, false, HaloPrecision::kFull},
        OracleCase{{2, 1, 1, 2}, false, HaloPrecision::kHalf},
        OracleCase{{2, 1, 1, 2}, true, HaloPrecision::kFull},
        OracleCase{{2, 1, 1, 2}, true, HaloPrecision::kHalf},
        OracleCase{{1, 1, 1, 4}, false, HaloPrecision::kFull},
        OracleCase{{1, 1, 1, 4}, false, HaloPrecision::kHalf},
        OracleCase{{1, 1, 1, 4}, true, HaloPrecision::kFull},
        OracleCase{{1, 1, 1, 4}, true, HaloPrecision::kHalf}));

// --- error contract: budgets, death, timeouts ------------------------

/// Every attempt of every message to rank 0 drops: the receive must
/// burn the whole retry budget and surface FatalError, with the exact
/// timeout/retransmit counts the protocol promises.
void budget_exhaustion_drill(int n, const MakeTransport& make) {
  FaultInjector fi(5);
  FaultSpec drop;
  drop.drop_prob = 1.0;
  fi.set_rank_spec(0, drop);
  const LatticeGeometry geo({4, 4, 4, 8});
  const ProcessGrid grid(choose_grid(geo.dims(), n));
  bool fatal = false;
  CommStats stats0;
  run_spmd(n, make, [&](int r, tr::Transport& tp) {
    RankCluster<double> cl(geo, grid, tp);
    ResilienceConfig rc;
    rc.checksum = true;
    rc.max_retries = 2;
    cl.set_resilience(rc);
    cl.set_fault_injector(&fi);
    auto f = cl.make_fermion();
    if (r == 0) {
      try {
        cl.exchange(f);
      } catch (const FatalError&) {
        fatal = true;
      }
      stats0 = cl.stats();
    } else {
      // Faults target only receiver rank 0, so this exchange is clean —
      // unless rank 0's fatal exit lands first, in which case observing
      // the death as TransientError is the correct outcome too (a
      // closing TCP peer can destroy frames still in flight).
      try {
        cl.exchange(f);
      } catch (const TransientError&) {
      }
    }
  });
  EXPECT_TRUE(fatal) << "exhausted retry budget must raise FatalError";
  // First wire face: attempts 0..2 all drop -> 3 timeouts, 2
  // retransmits, then FatalError before any further face.
  EXPECT_EQ(stats0.timeouts, 3);
  EXPECT_EQ(stats0.retransmits, 2);
}

TEST(TransportErrors, RetryBudgetExhaustionIsFatalInProcess) {
  budget_exhaustion_drill(2, inprocess_world(2));
}

TEST(TransportErrors, RetryBudgetExhaustionIsFatalSocket) {
  SocketWorld w(2);
  budget_exhaustion_drill(2, w.make());
}

TEST(TransportErrors, RetryBudgetExhaustionIsFatalShm) {
  ShmWorld w(2);
  budget_exhaustion_drill(2, w.make());
}

/// Peer death mid-exchange_finish: rank 1 connects and exits without
/// sending its faces; rank 0's finish must surface TransientError (the
/// PR-1 checkpoint/retry signal), not hang and not FatalError.
TEST(TransportErrors, SocketPeerDeathMidFinishIsTransient) {
  SocketWorld w(2);
  const MakeTransport make = w.make();
  const LatticeGeometry geo({4, 4, 4, 8});
  const ProcessGrid grid(choose_grid(geo.dims(), 2));
  bool transient = false;
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    if (r == 1) return;  // die immediately: endpoint destructs, EOF
    RankCluster<double> cl(geo, grid, tp);
    auto f = cl.make_fermion();
    try {
      cl.exchange_begin(f);
      cl.exchange_finish(f);
    } catch (const TransientError&) {
      transient = true;
    }
  });
  EXPECT_TRUE(transient);
}

/// A parting message is delivered before the sender's death surfaces:
/// the receiver drains what the departed peer left in its stream, then
/// raises TransientError.
void parting_message_drill(const MakeTransport& make) {
  std::vector<std::byte> got;
  bool transient = false;
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    if (r == 1) {
      // Deliver one message, then die (the endpoint destructs: EOF on
      // socket, the dead flag on shm).
      tp.send(0, ctrl_tag(0), make_payload(200, 3));
      return;
    }
    // The parting message is still delivered...
    tp.recv(1, ctrl_tag(0), got);
    // ...then the death surfaces.
    try {
      std::vector<std::byte> never;
      tp.recv(1, ctrl_tag(1), never);
    } catch (const TransientError&) {
      transient = true;
    }
  });
  EXPECT_EQ(got, make_payload(200, 3));
  EXPECT_TRUE(transient);
}

TEST(TransportErrors, ShmPeerDeathDrainsThenFails) {
  ShmWorld w(2);
  parting_message_drill(w.make());
}

TEST(TransportErrors, SocketPeerDeathDrainsThenFails) {
  SocketWorld w(2);
  parting_message_drill(w.make());
}

/// The launcher-side dead flag (what lqcd_launch sets on waitpid) is
/// equivalent to the peer's own exit.
TEST(TransportErrors, ShmLauncherDeadFlagRaisesTransient) {
  ShmWorld w(2);
  tr::shm_mark_dead(w.path(), 1);
  const MakeTransport make = w.make();
  bool transient = false;
  run_spmd(1, [&](int) { return make(0); },
           [&](int, tr::Transport& tp) {
             try {
               std::vector<std::byte> never;
               tp.recv(1, ctrl_tag(0), never);
             } catch (const TransientError&) {
               transient = true;
             }
           });
  EXPECT_TRUE(transient);
}

/// A peer alive but silent past the receive timeout raises TransientError.
void recv_timeout_drill(const MakeTransport& make) {
  bool transient = false;
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    if (r == 1) {
      // Alive but silent; wait for rank 0's all-clear so the death of our
      // exit cannot race the timeout under test.
      std::vector<std::byte> done;
      tp.recv(0, ctrl_tag(0), done);
      return;
    }
    try {
      std::vector<std::byte> never;
      tp.recv(1, ctrl_tag(0), never);
    } catch (const TransientError&) {
      transient = true;
    }
    tp.send(1, ctrl_tag(0), make_payload(1));
  });
  EXPECT_TRUE(transient);
}

TEST(TransportErrors, SocketRecvTimeoutIsTransient) {
  SocketWorld w(2);
  recv_timeout_drill(w.make(/*recv_timeout_ms=*/100));
}

TEST(TransportErrors, ShmRecvTimeoutIsTransient) {
  ShmWorld w(2);
  recv_timeout_drill(w.make(/*recv_timeout_ms=*/100));
}

/// A frame bigger than the ring streams through it in segments: the
/// ring is flow control, not a message-size limit.
TEST(ShmTransport, LargeFrameStreamsThroughSmallRing) {
  ShmWorld w(2, /*ring_bytes=*/4096);
  const MakeTransport make = w.make();
  const std::vector<std::byte> big = make_payload(64 * 1024, 5);
  std::vector<std::byte> got;
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    if (r == 0) {
      tp.send(1, ctrl_tag(0), big);
      std::vector<std::byte> ack;
      tp.recv(1, ctrl_tag(1), ack);  // keep the segment mapped until read
    } else {
      tp.recv(0, ctrl_tag(0), got);
      tp.send(0, ctrl_tag(1), make_payload(1));
    }
  });
  EXPECT_EQ(got.size(), big.size());
  EXPECT_EQ(got, big);
}

/// Regression: two ranks pushing frames bigger than their stream buffers
/// at each other — every face sent before any is received, as the halo
/// exchange does — must not deadlock on mutually full streams. Bytes that
/// do not fit spill to the sender's outbox and the receive pump flushes
/// them.
void bidirectional_drill(const MakeTransport& make, std::size_t bytes) {
  const std::vector<std::byte> big = make_payload(bytes, 7);
  std::vector<std::byte> got[2];
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    tp.send(1 - r, ctrl_tag(0), big);
    tp.recv(1 - r, ctrl_tag(0), got[r]);
  });
  EXPECT_EQ(got[0], big);
  EXPECT_EQ(got[1], big);
}

TEST(ShmTransport, BidirectionalLargeFramesDoNotDeadlock) {
  ShmWorld w(2, /*ring_bytes=*/4096);
  bidirectional_drill(w.make(), 256 * 1024);
}

/// Loopback TCP buffers hold a few MiB at most (the send buffer is capped
/// by tcp_wmem, the receive window stays small while nobody reads), so
/// 8 MiB frames always spill.
TEST(SocketTransport, BidirectionalLargeFramesDoNotDeadlock) {
  SocketWorld w(2);
  bidirectional_drill(w.make(), 8u << 20);
}

/// Regression: a producer that dies mid-frame (SIGKILL leaves a torn
/// frame in the ring) must surface TransientError promptly — the torn
/// residue in the FrameReader can never complete, so the receiver must
/// not wait on it. The dead flag set while the spilled remainder is
/// still pending emulates the launcher's --kill-rank drill.
TEST(TransportErrors, ShmTornFrameFromDeadProducerIsTransient) {
  ShmWorld w(2, /*ring_bytes=*/4096);
  const MakeTransport make = w.make();
  std::atomic<bool> torn{false};
  bool transient = false;
  run_spmd(2, make, [&](int r, tr::Transport& tp) {
    if (r == 1) {
      // The ring takes the first ~4K of the frame; the rest spills to
      // the outbox. Marking ourselves dead before it flushes strands a
      // permanent partial frame, exactly like a mid-write SIGKILL.
      tp.send(0, ctrl_tag(0), make_payload(64 * 1024, 9));
      tr::shm_mark_dead(w.path(), 1);
      torn.store(true, std::memory_order_release);
      return;
    }
    while (!torn.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      std::vector<std::byte> never;
      tp.recv(1, ctrl_tag(0), never);
    } catch (const TransientError&) {
      transient = true;
    }
  });
  EXPECT_TRUE(transient);
}

}  // namespace
}  // namespace lqcd
