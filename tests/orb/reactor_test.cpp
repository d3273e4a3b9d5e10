// Reactor receive-path tests: incremental frame assembly (byte-dribbled and
// interleaved partial frames), loss of a frame mid-assembly, hostile and
// announced-but-unsent frame lengths, partial reply writes drained on
// EPOLLOUT against a slow reader, dispatch-queue back-pressure (stalled
// connections resume instead of dropping requests), idle-connection
// harvesting, sessions over the reactor, inline dispatch of non_blocking()
// servants on the I/O thread, and endpoint restart on the same port.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <latch>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/tcp_transport.hpp"
#include "test_interfaces.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;
using corbaft_test::CalcServant;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

RequestMessage make_add_request(const IOR& target, std::uint64_t id,
                                std::int32_t a, std::int32_t b) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = target.key;
  req.operation = "add";
  req.arguments = {Value(a), Value(b)};
  return req;
}

std::vector<std::byte> encode_request(const RequestMessage& req) {
  CdrOutputStream body;
  req.encode_body(body);
  return encode_frame(MessageType::request, body);
}

/// This process's resident set size in KiB (VmRSS of /proc/self/status).
std::size_t rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  return 0;
}

ReplyMessage recv_reply(Socket& socket, double timeout_s = 10.0) {
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, timeout_s))
    throw COMM_FAILURE("peer closed while a reply was expected");
  CdrInputStream in(body, header.byte_order);
  return ReplyMessage::decode_body(in);
}

/// Servant that holds every call for a fixed delay (back-pressure tests).
class SlowServant : public corbaft_test::CalcSkeleton {
 public:
  explicit SlowServant(std::chrono::milliseconds delay) : delay_(delay) {}
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    std::this_thread::sleep_for(delay_);
    ++calls_;
    return a + b;
  }
  std::string echo(const std::string& s) override {
    ++calls_;
    return s;
  }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<std::int64_t> calls_{0};
};

/// SlowServant that records the thread of every add() and reports the
/// non_blocking() flag it was built with.
class ProbeServant : public SlowServant {
 public:
  explicit ProbeServant(bool non_blocking,
                        std::chrono::milliseconds delay = 0ms)
      : SlowServant(delay), non_blocking_(non_blocking) {}
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    {
      std::lock_guard lock(mu_);
      threads_.insert(std::this_thread::get_id());
    }
    return SlowServant::add(a, b);
  }
  bool non_blocking() const noexcept override { return non_blocking_; }
  std::set<std::thread::id> threads() const {
    std::lock_guard lock(mu_);
    return threads_;
  }

 private:
  const bool non_blocking_;
  mutable std::mutex mu_;
  std::set<std::thread::id> threads_;
};

/// Opens (session_id 0) or resumes a session on `socket`.
SessionAccept session_handshake(Socket& socket, std::uint64_t session_id) {
  CdrOutputStream hello_body;
  SessionHello{.session_id = session_id, .highest_reply_seq = 0}.encode_body(
      hello_body);
  socket.send_bytes(encode_frame(MessageType::session_hello, hello_body));
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, 5.0) ||
      header.type != MessageType::session_accept)
    throw COMM_FAILURE("no session_accept");
  CdrInputStream in(body, header.byte_order);
  return SessionAccept::decode_body(in);
}

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = ORB::init({.endpoint_name = "reactor-server",
                         .enable_tcp = true,
                         .io_threads = 2});
    target_ = server_->activate(std::make_shared<CalcServant>());
  }

  std::shared_ptr<ORB> server_;
  ObjectRef target_;
};

TEST_F(ReactorTest, PartialFrameAssembledAcrossManyReads) {
  // Dribble one request frame a few bytes at a time: the reactor must
  // assemble it incrementally (header first, then body) and reply once the
  // last byte lands.
  const std::vector<std::byte> frame =
      encode_request(make_add_request(target_.ior(), 7, 40, 2));
  Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
  for (std::size_t off = 0; off < frame.size(); off += 3) {
    const std::size_t n = std::min<std::size_t>(3, frame.size() - off);
    socket.send_bytes(std::span(frame).subspan(off, n));
    std::this_thread::sleep_for(1ms);
  }
  const ReplyMessage reply = recv_reply(socket);
  EXPECT_EQ(reply.request_id, 7u);
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
}

TEST_F(ReactorTest, InterleavedPartialFramesKeepConnectionsIsolated) {
  // Two connections alternate partial writes: per-connection read buffers
  // must never mix the streams.
  const std::vector<std::byte> frame_a =
      encode_request(make_add_request(target_.ior(), 1, 10, 1));
  const std::vector<std::byte> frame_b =
      encode_request(make_add_request(target_.ior(), 2, 20, 2));
  Socket sock_a = Socket::connect("127.0.0.1", server_->tcp_port());
  Socket sock_b = Socket::connect("127.0.0.1", server_->tcp_port());
  const std::size_t len = std::max(frame_a.size(), frame_b.size());
  for (std::size_t off = 0; off < len; off += 5) {
    if (off < frame_a.size())
      sock_a.send_bytes(std::span(frame_a).subspan(
          off, std::min<std::size_t>(5, frame_a.size() - off)));
    if (off < frame_b.size())
      sock_b.send_bytes(std::span(frame_b).subspan(
          off, std::min<std::size_t>(5, frame_b.size() - off)));
  }
  EXPECT_EQ(recv_reply(sock_a).result_or_throw().as_i32(), 11);
  EXPECT_EQ(recv_reply(sock_b).result_or_throw().as_i32(), 22);
}

TEST_F(ReactorTest, FrameLostMidAssemblyDoesNotWedgeTheServer) {
  // A client that dies halfway through a frame must only cost its own
  // connection: the half-assembled buffer is discarded on EOF and the
  // endpoint keeps serving.
  {
    const std::vector<std::byte> frame =
        encode_request(make_add_request(target_.ior(), 3, 1, 2));
    Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
    socket.send_bytes(std::span(frame).first(frame.size() / 2));
    std::this_thread::sleep_for(20ms);  // let the reactor ingest the half
  }                                     // close with the frame incomplete
  Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
  socket.send_bytes(encode_request(make_add_request(target_.ior(), 4, 2, 3)));
  EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 5);
}

TEST_F(ReactorTest, HostileFrameLengthDropsOnlyThatConnection) {
  // A header announcing a 4 GiB body must not make the server size a buffer
  // for it: the frame is rejected as MARSHAL, that connection is dropped,
  // and the endpoint keeps serving fresh connections.
  MessageHeader hostile;
  hostile.body_length = 0xFFFFFFFFu;
  Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
  socket.send_bytes(hostile.encode());
  MessageHeader header;
  std::vector<std::byte> body;
  EXPECT_FALSE(socket.recv_frame(header, body, 5.0))
      << "server must close the connection after a hostile frame length";

  Socket fresh = Socket::connect("127.0.0.1", server_->tcp_port());
  fresh.send_bytes(encode_request(make_add_request(target_.ior(), 9, 4, 5)));
  EXPECT_EQ(recv_reply(fresh).result_or_throw().as_i32(), 9);
}

TEST_F(ReactorTest, AnnouncedFrameLengthCostsNoMemory) {
  // Headers that each announce a near-maximal (still legal) body followed
  // by 1 KiB of it: the server buffers the bytes that arrived, not the
  // length a peer claims, so four such connections leave RSS flat.
  MessageHeader header;
  header.body_length = MessageHeader::kMaxBodyLength - 1;
  std::vector<std::byte> partial(MessageHeader::kEncodedSize + 1024);
  const auto head = header.encode();
  std::copy(head.begin(), head.end(), partial.begin());

  const std::size_t before = rss_kib();
  std::vector<Socket> sockets;
  for (int i = 0; i < 4; ++i) {
    sockets.push_back(Socket::connect("127.0.0.1", server_->tcp_port()));
    sockets.back().send_bytes(partial);
  }
  std::this_thread::sleep_for(100ms);  // let the reactor ingest every header
  const std::size_t after = rss_kib();
  EXPECT_LT(after - std::min(after, before), 32u * 1024)
      << "RSS grew from " << before << " KiB to " << after << " KiB";

  Socket fresh = Socket::connect("127.0.0.1", server_->tcp_port());
  fresh.send_bytes(encode_request(make_add_request(target_.ior(), 10, 6, 7)));
  EXPECT_EQ(recv_reply(fresh).result_or_throw().as_i32(), 13);
}

TEST_F(ReactorTest, PipelinedBurstRepliesInOrder) {
  // Many requests in one write: the reactor parses every complete frame in
  // the buffer and the dispatch pool's per-key FIFO keeps replies ordered.
  constexpr int kCalls = 64;
  std::vector<std::byte> burst;
  for (int i = 0; i < kCalls; ++i) {
    const std::vector<std::byte> frame = encode_request(
        make_add_request(target_.ior(), static_cast<std::uint64_t>(i), i, 1));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
  socket.send_bytes(burst);
  for (int i = 0; i < kCalls; ++i) {
    const ReplyMessage reply = recv_reply(socket);
    EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(reply.result_or_throw().as_i32(), i + 1);
  }
}

TEST_F(ReactorTest, SlowReaderDrainsDeferredWritesInOrder) {
  // A client that pipelines far more reply volume than the kernel's socket
  // buffers hold, without reading: reply writes hit EAGAIN, the tails park
  // in the connection's pending-write queue and drain on EPOLLOUT once the
  // client starts reading, preserving order.
  constexpr int kCalls = 64;
  const std::string payload(256 * 1024, 'x');

  Socket socket = Socket::connect("127.0.0.1", server_->tcp_port());
  const std::uint64_t deferred_before =
      counter_value("transport.tcp.reactor.deferred_writes_total");
  for (int i = 0; i < kCalls; ++i) {
    RequestMessage req;
    req.request_id = static_cast<std::uint64_t>(i);
    req.object_key = target_.ior().key;
    req.operation = "echo";
    req.arguments = {Value(payload)};
    socket.send_bytes(encode_request(req));
  }
  // Do not read yet: give the server time to fill the socket buffers so the
  // reply stream actually backs up (~16MiB of replies vs ~hundreds of KiB of
  // kernel buffering).
  std::this_thread::sleep_for(200ms);
  for (int i = 0; i < kCalls; ++i) {
    const ReplyMessage reply = recv_reply(socket, 30.0);
    EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(reply.result_or_throw().as_string(), payload);
  }
  EXPECT_GT(counter_value("transport.tcp.reactor.deferred_writes_total"),
            deferred_before)
      << "16MiB of pipelined replies never hit EAGAIN";
}

TEST(ReactorBackPressureTest, FullDispatchQueueStallsConnectionsWithoutLoss) {
  // A tiny dispatch queue against a slow servant: connections stall (EPOLLIN
  // disarmed) while the pool is full and resume via the space callback.
  // Every request must still complete exactly once.
  auto server = ORB::init({.endpoint_name = "reactor-bp",
                           .enable_tcp = true,
                           .dispatch_threads = 1,
                           .dispatch_queue_limit = 2,
                           .io_threads = 2});
  auto slow = std::make_shared<SlowServant>(2ms);
  const ObjectRef target = server->activate(slow);

  constexpr int kConns = 4;
  constexpr int kCallsPerConn = 16;
  std::vector<Socket> sockets;
  for (int c = 0; c < kConns; ++c) {
    sockets.push_back(Socket::connect("127.0.0.1", server->tcp_port()));
    std::vector<std::byte> burst;
    for (int i = 0; i < kCallsPerConn; ++i) {
      const std::vector<std::byte> frame = encode_request(make_add_request(
          target.ior(), static_cast<std::uint64_t>(c * 100 + i), i, c));
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    sockets.back().send_bytes(burst);
  }
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kCallsPerConn; ++i) {
      const ReplyMessage reply = recv_reply(sockets[c], 30.0);
      EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(c * 100 + i));
      EXPECT_EQ(reply.result_or_throw().as_i32(), i + c);
    }
  }
  EXPECT_EQ(slow->calls(), kConns * kCallsPerConn);
}

TEST(ReactorBackPressureTest, StalledRequestSurvivesDisconnectViaSessionReplay) {
  // Regression: a request parked by back-pressure has already had its seq
  // noted by the session, so the client's post-resume retransmit of that seq
  // is suppressed as a duplicate.  If the connection dies while the request
  // is parked (here: an RST against a stalled connection), the reactor must
  // still execute it — the reply lands in the session replay buffer —
  // instead of dropping it, which would lose the call with no retry.
  auto server = ORB::init({.endpoint_name = "reactor-salvage",
                           .enable_tcp = true,
                           .dispatch_threads = 1,
                           .dispatch_queue_limit = 1,
                           .io_threads = 1});
  auto slow = std::make_shared<SlowServant>(400ms);
  const ObjectRef target = server->activate(slow);

  std::uint64_t session_id = 0;
  {
    Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
    CdrOutputStream hello_body;
    SessionHello{.session_id = 0, .highest_reply_seq = 0}.encode_body(
        hello_body);
    socket.send_bytes(encode_frame(MessageType::session_hello, hello_body));
    MessageHeader header;
    std::vector<std::byte> body;
    ASSERT_TRUE(socket.recv_frame(header, body, 5.0));
    ASSERT_EQ(header.type, MessageType::session_accept);
    CdrInputStream in(body, header.byte_order);
    const SessionAccept accept = SessionAccept::decode_body(in);
    ASSERT_TRUE(accept.ok);
    session_id = accept.session_id;

    // seq 1 occupies the whole pool (limit 1, servant sleeping); seq 2 is
    // parked on the connection with EPOLLIN disarmed.
    RequestMessage first = make_add_request(target.ior(), 1, 10, 1);
    attach_session_context(first, {.seq = 1, .ack = 0});
    RequestMessage second = make_add_request(target.ior(), 2, 20, 2);
    attach_session_context(second, {.seq = 2, .ack = 0});
    std::vector<std::byte> burst = encode_request(first);
    const std::vector<std::byte> f2 = encode_request(second);
    burst.insert(burst.end(), f2.begin(), f2.end());
    socket.send_bytes(burst);
    std::this_thread::sleep_for(100ms);  // let the reactor ingest and stall
    const linger lg{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(socket.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }  // RST: EPOLLERR/EPOLLHUP hits the stalled connection

  // Resume: the server must report both seqs received (so the client will
  // not retransmit either) and deliver both replies — seq 1 completed
  // against the dead carrier, seq 2 was salvaged from the reaped connection.
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  CdrOutputStream hello_body;
  SessionHello{.session_id = session_id, .highest_reply_seq = 0}.encode_body(
      hello_body);
  socket.send_bytes(encode_frame(MessageType::session_hello, hello_body));
  MessageHeader header;
  std::vector<std::byte> body;
  ASSERT_TRUE(socket.recv_frame(header, body, 5.0));
  ASSERT_EQ(header.type, MessageType::session_accept);
  CdrInputStream in(body, header.byte_order);
  const SessionAccept accept = SessionAccept::decode_body(in);
  ASSERT_TRUE(accept.ok);
  EXPECT_EQ(accept.highest_request_seq, 2u);

  const ReplyMessage r1 = recv_reply(socket);
  EXPECT_EQ(r1.request_id, 1u);
  EXPECT_EQ(r1.result_or_throw().as_i32(), 11);
  const ReplyMessage r2 = recv_reply(socket);
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r2.result_or_throw().as_i32(), 22);
  EXPECT_EQ(slow->calls(), 2);
}

TEST(ReactorProtocolTest, UnknownMessageTypeStopsProcessingBufferedFrames) {
  // Regression: when the message_error answer to an unexpected frame type
  // had to be queued behind deferred reply writes, the reactor kept parsing
  // and dispatched valid requests buffered after the bad frame.  No input
  // behind a bad frame may be processed.
  auto server = ORB::init(
      {.endpoint_name = "reactor-badframe", .enable_tcp = true, .io_threads = 1});
  auto servant = std::make_shared<CalcServant>();
  const ObjectRef target = server->activate(servant);

  constexpr int kEchoes = 64;
  const std::string payload(256 * 1024, 'x');
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  for (int i = 0; i < kEchoes; ++i) {
    RequestMessage req;
    req.request_id = static_cast<std::uint64_t>(i);
    req.object_key = target.ior().key;
    req.operation = "echo";
    req.arguments = {Value(payload)};
    socket.send_bytes(encode_request(req));
  }
  // Give the replies time to back up into the pending-write queue (~16MiB
  // vs ~hundreds of KiB of kernel buffering) so the error frame below is
  // queued, not flushed inline.
  std::this_thread::sleep_for(200ms);

  // A reply frame is valid wire but meaningless to a server; the request
  // buffered after it must never execute.
  CdrOutputStream empty;
  std::vector<std::byte> tail = encode_frame(MessageType::reply, empty);
  const std::vector<std::byte> after =
      encode_request(make_add_request(target.ior(), 999, 1, 2));
  tail.insert(tail.end(), after.begin(), after.end());
  socket.send_bytes(tail);

  for (int i = 0; i < kEchoes; ++i) {
    const ReplyMessage reply = recv_reply(socket, 30.0);
    EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(i));
  }
  MessageHeader header;
  std::vector<std::byte> body;
  ASSERT_TRUE(socket.recv_frame(header, body, 10.0));
  EXPECT_EQ(header.type, MessageType::message_error);
  EXPECT_FALSE(socket.recv_frame(header, body, 10.0))
      << "connection must close after message_error";
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(servant->calls(), kEchoes)
      << "request buffered after the bad frame was dispatched";
}

TEST(ReactorIdleHarvestTest, IdleConnectionsAreClosedAfterTheTimeout) {
  auto server = ORB::init({.endpoint_name = "reactor-idle",
                           .enable_tcp = true,
                           .io_threads = 1,
                           .server_idle_timeout_s = 0.1});
  const ObjectRef target = server->activate(std::make_shared<CalcServant>());

  const std::uint64_t harvested_before =
      counter_value("transport.tcp.reactor.idle_harvested_total");
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  socket.send_bytes(encode_request(make_add_request(target.ior(), 1, 2, 2)));
  EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 4);

  // Now go quiet: the deadline wheel must close the connection from the
  // server side (recv sees EOF, not a timeout).
  MessageHeader header;
  std::vector<std::byte> body;
  EXPECT_FALSE(socket.recv_frame(header, body, 5.0));
  EXPECT_GT(counter_value("transport.tcp.reactor.idle_harvested_total"),
            harvested_before);
}

TEST(ReactorSessionTest, SessionsResumeOntoReactorCarrier) {
  // Sessions over the reactor: handshake, per-request seq/ack and a reply
  // delivered after the carrier switches (the session's weak carrier must
  // route completions to the live ReactorConn).
  auto server = ORB::init({.endpoint_name = "reactor-sess",
                           .enable_tcp = true,
                           .io_threads = 2});
  const ObjectRef target = server->activate(std::make_shared<CalcServant>());

  TcpClientTransport transport(TcpClientOptions{.enable_sessions = true,
                                                .resume_attempts = 3,
                                                .resume_backoff_s = 0.02});
  const IOR ior = target.ior();
  for (std::uint64_t i = 1; i <= 32; ++i) {
    const ReplyMessage reply =
        transport.invoke(ior, make_add_request(ior, i, static_cast<int>(i), 1));
    EXPECT_EQ(reply.result_or_throw().as_i32(), static_cast<int>(i) + 1);
  }
}

TEST(ReactorInlineDispatchTest, OnlyNonBlockingServantsRunOnTheIoThread) {
  auto server = ORB::init({.endpoint_name = "reactor-inline",
                           .enable_tcp = true,
                           .dispatch_threads = 2,
                           .io_threads = 1});
  DispatchPool& pool = *server->adapter().dispatch_pool();

  // The pool's workers report their ids: two requests for two keys, each
  // held until both run, occupy both workers at once.
  std::latch both_running(2);
  std::mutex mu;
  std::set<std::thread::id> workers;
  class Rendezvous : public CalcServant {
   public:
    Rendezvous(std::latch& latch, std::mutex& mu,
               std::set<std::thread::id>& ids)
        : latch_(latch), mu_(mu), ids_(ids) {}
    std::int32_t add(std::int32_t a, std::int32_t b) override {
      {
        std::lock_guard lock(mu_);
        ids_.insert(std::this_thread::get_id());
      }
      latch_.arrive_and_wait();
      return a + b;
    }

   private:
    std::latch& latch_;
    std::mutex& mu_;
    std::set<std::thread::id>& ids_;
  };
  std::latch both_done(2);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    const ObjectRef rendezvous = server->activate(
        std::make_shared<Rendezvous>(both_running, mu, workers));
    RequestMessage request = make_add_request(rendezvous.ior(), i, 1, 1);
    DispatchPool::Completion done = [&](ReplyMessage) {
      both_done.count_down();
    };
    ASSERT_TRUE(pool.try_submit(request, done));
  }
  both_done.wait();
  ASSERT_EQ(workers.size(), 2u);

  auto inline_probe = std::make_shared<ProbeServant>(true);
  auto pooled_probe = std::make_shared<ProbeServant>(false);
  const IOR inline_ior = server->activate(inline_probe).ior();
  const IOR pooled_ior = server->activate(pooled_probe).ior();
  const std::uint64_t inline_before =
      counter_value("orb.dispatch_pool.inline_total");
  TcpClientTransport transport;
  constexpr int kCalls = 16;
  for (int i = 1; i <= kCalls; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    EXPECT_EQ(transport.invoke(inline_ior, make_add_request(inline_ior, id, i, 1))
                  .result_or_throw()
                  .as_i32(),
              i + 1);
    EXPECT_EQ(transport.invoke(pooled_ior, make_add_request(pooled_ior, id, i, 2))
                  .result_or_throw()
                  .as_i32(),
              i + 2);
  }
  EXPECT_EQ(inline_probe->calls(), kCalls);
  EXPECT_EQ(pooled_probe->calls(), kCalls);
  EXPECT_EQ(counter_value("orb.dispatch_pool.inline_total"),
            inline_before + kCalls);

  // The flagged servant ran on the one reactor thread: neither a worker
  // nor this client thread.  The unflagged one never left the workers.
  const std::set<std::thread::id> inline_threads = inline_probe->threads();
  ASSERT_EQ(inline_threads.size(), 1u);
  const std::thread::id io_thread = *inline_threads.begin();
  EXPECT_FALSE(workers.contains(io_thread));
  EXPECT_NE(io_thread, std::this_thread::get_id());
  for (const std::thread::id id : pooled_probe->threads())
    EXPECT_TRUE(workers.contains(id));
}

TEST(ReactorInlineDispatchTest, CutUnderAnInlineServantExecutesOnce) {
  // The connection dies while a non_blocking servant runs on the I/O
  // thread: the reply still lands in the session's replay buffer, the
  // resume replays it, and the client's retransmit of the same seq is
  // suppressed — the servant executes exactly once.
  auto server = ORB::init({.endpoint_name = "reactor-inline-cut",
                           .enable_tcp = true,
                           .io_threads = 1});
  auto probe = std::make_shared<ProbeServant>(true, 100ms);
  const IOR target = server->activate(probe).ior();
  RequestMessage first = make_add_request(target, 1, 10, 1);
  attach_session_context(first, {.seq = 1, .ack = 0});

  std::uint64_t session_id = 0;
  {
    Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
    const SessionAccept accept = session_handshake(socket, 0);
    ASSERT_TRUE(accept.ok);
    session_id = accept.session_id;
    socket.send_bytes(encode_request(first));
    std::this_thread::sleep_for(30ms);  // the servant is mid-call
    const linger lg{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(socket.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }  // RST

  const std::uint64_t suppressed_before =
      counter_value("transport.session.duplicates_suppressed_total");
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  const SessionAccept accept = session_handshake(socket, session_id);
  ASSERT_TRUE(accept.ok);
  EXPECT_EQ(accept.highest_request_seq, 1u);
  const ReplyMessage replayed = recv_reply(socket);
  EXPECT_EQ(replayed.request_id, 1u);
  EXPECT_EQ(replayed.result_or_throw().as_i32(), 11);

  // The client retransmits seq 1 anyway, then moves on to seq 2: the
  // duplicate is dropped, so the next reply is seq 2's.
  attach_session_context(first, {.seq = 1, .ack = 1});
  RequestMessage second = make_add_request(target, 2, 20, 2);
  attach_session_context(second, {.seq = 2, .ack = 1});
  std::vector<std::byte> burst = encode_request(first);
  const std::vector<std::byte> f2 = encode_request(second);
  burst.insert(burst.end(), f2.begin(), f2.end());
  socket.send_bytes(burst);
  const ReplyMessage r2 = recv_reply(socket);
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r2.result_or_throw().as_i32(), 22);
  EXPECT_EQ(probe->calls(), 2);
  EXPECT_EQ(counter_value("transport.session.duplicates_suppressed_total"),
            suppressed_before + 1);
}

TEST(ReactorInlineDispatchTest, ATcpOrbAlwaysHasADispatchPool) {
  // No whole-ORB inline mode: zero workers is a configuration error.
  EXPECT_THROW(ORB::init({.endpoint_name = "reactor-no-pool",
                          .enable_tcp = true,
                          .dispatch_threads = 0}),
               BAD_PARAM);
}

TEST(ReactorLifecycleTest, PortReleasedAndRestartableInReactorMode) {
  std::uint16_t port = 0;
  {
    auto orb = ORB::init({.endpoint_name = "r1", .enable_tcp = true});
    port = orb->tcp_port();
    // Leave a live connection with a half-written frame behind at shutdown:
    // stop() must still drain cleanly.
    Socket socket = Socket::connect("127.0.0.1", port);
    const std::vector<std::byte> half = {std::byte{0x47}, std::byte{0x4f}};
    socket.send_bytes(half);
    std::this_thread::sleep_for(10ms);
    orb->shutdown();
  }
  auto orb2 = ORB::init(
      {.endpoint_name = "r2", .enable_tcp = true, .tcp_port = port});
  EXPECT_EQ(orb2->tcp_port(), port);
  const ObjectRef target = orb2->activate(std::make_shared<CalcServant>());
  Socket socket = Socket::connect("127.0.0.1", port);
  socket.send_bytes(encode_request(make_add_request(target.ior(), 1, 3, 4)));
  EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 7);
}

}  // namespace
}  // namespace corba
