// Multiplexed-transport tests: one shared connection per target, pipelined
// concurrent calls demuxed by request id, batched failure of in-flight calls
// when a connection breaks, per-call timeouts that spare the connection, and
// the idle-TTL / socket-cap bounding of the connection table.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/orb.hpp"
#include "orb/tcp_transport.hpp"
#include "test_interfaces.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;
using corbaft_test::CalcServant;
using corbaft_test::CalcStub;

/// Servant whose add() blocks for `delay`, and which tracks how many add()
/// calls overlap (to prove — or disprove — concurrent execution).
class SlowServant : public corbaft_test::CalcSkeleton {
 public:
  explicit SlowServant(std::chrono::milliseconds delay) : delay_(delay) {}

  std::int32_t add(std::int32_t a, std::int32_t b) override {
    const int now = concurrent_.fetch_add(1) + 1;
    int expected = max_concurrent_.load();
    while (now > expected &&
           !max_concurrent_.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(delay_);
    concurrent_.fetch_sub(1);
    ++calls_;
    return a + b;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }
  int max_concurrent() const { return max_concurrent_.load(); }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<int> concurrent_{0};
  std::atomic<int> max_concurrent_{0};
  std::atomic<std::int64_t> calls_{0};
};

RequestMessage make_request(const IOR& target, std::uint64_t id,
                            std::int32_t a, std::int32_t b) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = target.key;
  req.operation = "add";
  req.arguments = {Value(a), Value(b)};
  return req;
}

class MultiplexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = ORB::init({.endpoint_name = "mux-server", .enable_tcp = true});
    target_ = server_->activate(std::make_shared<CalcServant>());
  }

  std::shared_ptr<ORB> server_;
  ObjectRef target_;
};

TEST_F(MultiplexTest, ConcurrentCallsShareOneConnection) {
  TcpClientTransport transport;
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> next_id{1};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const std::uint64_t id = next_id.fetch_add(1);
        const ReplyMessage reply = transport.invoke(
            target_.ior(), make_request(target_.ior(), id, int(id), 1));
        if (reply.request_id != id ||
            reply.result_or_throw().as_i32() != int(id) + 1)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(transport.connection_count(), 1u);
}

TEST_F(MultiplexTest, FastCallOvertakesSlowCallOnSameConnection) {
  // A slow method on one object must not block a fast call to another
  // pipelined behind it on the same connection (no head-of-line blocking).
  auto slow = std::make_shared<SlowServant>(400ms);
  const ObjectRef slow_ref = server_->activate(slow);
  TcpClientTransport transport;

  auto pending =
      transport.send(slow_ref.ior(), make_request(slow_ref.ior(), 1, 1, 2));
  const auto start = std::chrono::steady_clock::now();
  const ReplyMessage fast = transport.invoke(
      target_.ior(), make_request(target_.ior(), 2, 20, 22));
  const auto fast_elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fast.result_or_throw().as_i32(), 42);
  EXPECT_LT(fast_elapsed, 300ms) << "fast call waited behind the slow one";
  EXPECT_EQ(transport.connection_count(), 1u);
  EXPECT_EQ(pending->get().result_or_throw().as_i32(), 3);
}

TEST_F(MultiplexTest, SameObjectExecutesSerially) {
  // FIFO-per-key on the server: pipelined calls to ONE object never overlap.
  auto slow = std::make_shared<SlowServant>(5ms);
  const ObjectRef ref = server_->activate(slow);
  TcpClientTransport transport;
  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t i = 0; i < 16; ++i)
    pending.push_back(transport.send(ref.ior(), make_request(ref.ior(), i + 1,
                                                             int(i), 0)));
  for (auto& p : pending) (void)p->get();
  EXPECT_EQ(slow->calls(), 16);
  EXPECT_EQ(slow->max_concurrent(), 1);
}

TEST_F(MultiplexTest, DeferredRepliesDemuxedByRequestId) {
  TcpClientTransport transport;
  constexpr std::uint64_t kCalls = 32;
  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t i = 0; i < kCalls; ++i)
    pending.push_back(transport.send(
        target_.ior(), make_request(target_.ior(), 1000 + i, int(i), 7)));
  // Complete in reverse order: each waiter must still get ITS reply.
  for (std::uint64_t i = kCalls; i-- > 0;) {
    const ReplyMessage reply = pending[i]->get();
    EXPECT_EQ(reply.request_id, 1000 + i);
    EXPECT_EQ(reply.result_or_throw().as_i32(), int(i) + 7);
  }
  EXPECT_EQ(transport.connection_count(), 1u);
}

TEST_F(MultiplexTest, TimeoutAbandonsOneCallButSparesConnection) {
  auto slow = std::make_shared<SlowServant>(600ms);
  const ObjectRef slow_ref = server_->activate(slow);
  TcpClientTransport transport(TcpClientOptions{.request_timeout_s = 0.15});

  auto pending =
      transport.send(slow_ref.ior(), make_request(slow_ref.ior(), 1, 1, 1));
  EXPECT_THROW(pending->get(), TIMEOUT);
  // The connection survives the abandoned call: the next request reuses it
  // and its (late) sibling reply is discarded, not mispaired.
  const ReplyMessage reply = transport.invoke(
      target_.ior(), make_request(target_.ior(), 2, 2, 2));
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(reply.result_or_throw().as_i32(), 4);
  EXPECT_EQ(transport.connection_count(), 1u);
  std::this_thread::sleep_for(700ms);  // let the late reply drain
  const ReplyMessage after = transport.invoke(
      target_.ior(), make_request(target_.ior(), 3, 3, 3));
  EXPECT_EQ(after.result_or_throw().as_i32(), 6);
}

TEST_F(MultiplexTest, AbruptCloseFailsAllInFlightCalls) {
  // A bare-bones server that accepts one connection, reads forever and then
  // slams the door: every pipelined in-flight call must fail as a batch.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::atomic<bool> slam{false};
  std::thread fake_server([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    while (!slam.load()) std::this_thread::sleep_for(1ms);
    if (fd >= 0) ::close(fd);
  });

  IOR bogus = target_.ior();
  bogus.port = port;
  TcpClientTransport transport;
  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t i = 0; i < 4; ++i)
    pending.push_back(transport.send(bogus, make_request(bogus, i + 1, 1, 1)));
  slam.store(true);
  int comm_failures = 0;
  for (auto& p : pending) {
    try {
      (void)p->get();
    } catch (const COMM_FAILURE& e) {
      EXPECT_EQ(e.completed(), CompletionStatus::completed_maybe);
      ++comm_failures;
    }
  }
  EXPECT_EQ(comm_failures, 4);
  fake_server.join();
  ::close(listen_fd);

  // The broken connection is health-checked out of the table: the transport
  // keeps working against the real server.
  const ReplyMessage reply = transport.invoke(
      target_.ior(), make_request(target_.ior(), 99, 40, 2));
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
}

TEST_F(MultiplexTest, IdleConnectionsAreClosedAfterTtl) {
  obs::Counter& idle_closed = obs::MetricsRegistry::global().counter(
      "transport.tcp.idle_closed_total");
  const std::uint64_t before = idle_closed.value();
  TcpClientTransport transport(TcpClientOptions{.idle_ttl_s = 0.05});
  (void)transport.invoke(target_.ior(), make_request(target_.ior(), 1, 1, 1));
  EXPECT_EQ(transport.connection_count(), 1u);
  std::this_thread::sleep_for(120ms);
  // The sweep runs on the next send: the expired connection is replaced.
  (void)transport.invoke(target_.ior(), make_request(target_.ior(), 2, 1, 1));
  EXPECT_EQ(transport.connection_count(), 1u);
  EXPECT_EQ(idle_closed.value(), before + 1);
}

TEST_F(MultiplexTest, SocketCapEvictsIdleConnections) {
  auto server2 = ORB::init({.endpoint_name = "mux-s2", .enable_tcp = true});
  auto server3 = ORB::init({.endpoint_name = "mux-s3", .enable_tcp = true});
  const ObjectRef t2 = server2->activate(std::make_shared<CalcServant>());
  const ObjectRef t3 = server3->activate(std::make_shared<CalcServant>());

  TcpClientTransport transport(TcpClientOptions{.max_connections = 2});
  (void)transport.invoke(target_.ior(), make_request(target_.ior(), 1, 1, 1));
  (void)transport.invoke(t2.ior(), make_request(t2.ior(), 2, 2, 2));
  EXPECT_EQ(transport.connection_count(), 2u);
  (void)transport.invoke(t3.ior(), make_request(t3.ior(), 3, 3, 3));
  EXPECT_LE(transport.connection_count(), 2u);
  // The evicted target is still reachable — a new connection replaces it.
  const ReplyMessage reply = transport.invoke(
      target_.ior(), make_request(target_.ior(), 4, 20, 22));
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
}

TEST_F(MultiplexTest, OrbStackPipelinesThroughSharedConnection) {
  // End-to-end through the ORB/DII stack: many client threads, one target
  // ORB — the process still holds a single multiplexed connection.
  auto client = ORB::init({.endpoint_name = "mux-client", .enable_tcp = true});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CalcStub calc(client->make_ref(target_.ior()));
      for (int i = 0; i < 25; ++i)
        if (calc.add(t, i) != t + i) failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace corba
