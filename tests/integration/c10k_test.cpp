// C10K test: the reactor serves thousands of concurrent connections on a
// fixed two-thread receive budget.  Opens ~2k idle+active connections against
// one endpoint, checks the process thread count stays flat while they
// accumulate (holding a connection must cost no server thread), drives calls
// over a sample of them plus a sessions-enabled client, and verifies every
// reply lands exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/reactor.hpp"
#include "orb/tcp_transport.hpp"

namespace rt {
namespace {

using namespace corba;

/// Current thread count of this process (test + server + clients share it).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::stoi(line.substr(sizeof("Threads:") - 1));
  }
  return -1;
}

class CounterServant : public Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:rt/C10k:1.0";
  }
  Value dispatch(std::string_view op, const ValueSeq& args) override {
    if (op == "add")
      return Value(args.at(0).as_i32() + args.at(1).as_i32());
    throw BAD_OPERATION(std::string(op));
  }
};

std::vector<std::byte> encode_add(const IOR& target, std::uint64_t id,
                                  std::int32_t a, std::int32_t b) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = target.key;
  req.operation = "add";
  req.arguments = {Value(a), Value(b)};
  CdrOutputStream body;
  req.encode_body(body);
  return encode_frame(MessageType::request, body);
}

std::int32_t recv_add_reply(Socket& socket, std::uint64_t expect_id) {
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, 30.0))
    throw COMM_FAILURE("server closed a live c10k connection");
  CdrInputStream in(body, header.byte_order);
  const ReplyMessage reply = ReplyMessage::decode_body(in);
  EXPECT_EQ(reply.request_id, expect_id);
  return reply.result_or_throw().as_i32();
}

TEST(C10kTest, ThousandsOfConnectionsOnATwoThreadBudget) {
  // Each connection costs two fds in this single process (client + accepted
  // side); make sure the soft limit accommodates them before starting.
  const std::size_t limit = raise_nofile_soft_limit(3 * 2048 + 256);
  const std::size_t conns =
      limit >= 3 * 2048 + 256 ? 2048 : std::max<std::size_t>(
                                           (limit - 256) / 3, 512);
  ASSERT_GE(conns, 512u) << "RLIMIT_NOFILE too low to exercise C10K at all";

  auto server = ORB::init({.endpoint_name = "c10k",
                           .enable_tcp = true,
                           .dispatch_threads = 2,
                           .io_threads = 2});
  const ObjectRef target = server->activate(std::make_shared<CounterServant>());
  const IOR ior = target.ior();

  // Sessions-enabled client up front so its own threads are part of the
  // baseline, not noise in the flat-thread-count assertion.
  TcpClientTransport session_client(TcpClientOptions{.enable_sessions = true});
  const ReplyMessage warm = session_client.invoke(ior, [&] {
    RequestMessage req;
    req.request_id = 1;
    req.object_key = ior.key;
    req.operation = "add";
    req.arguments = {Value(1), Value(1)};
    return req;
  }());
  ASSERT_EQ(warm.result_or_throw().as_i32(), 2);

  const int threads_before = process_threads();
  ASSERT_GT(threads_before, 0);

  std::vector<Socket> sockets;
  sockets.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i)
    sockets.push_back(Socket::connect("127.0.0.1", server->tcp_port()));

  // Every 64th connection makes a call so the set is idle+active, and so a
  // round-robin sample across both event loops proves each one is serving.
  std::uint64_t issued = 0;
  for (std::size_t i = 0; i < sockets.size(); i += 64) {
    const std::uint64_t id = 100 + i;
    sockets[i].send_bytes(
        encode_add(ior, id, static_cast<std::int32_t>(i), 1));
    ++issued;
  }
  for (std::size_t i = 0; i < sockets.size(); i += 64)
    EXPECT_EQ(recv_add_reply(sockets[i], 100 + i),
              static_cast<std::int32_t>(i) + 1);

  // Session traffic keeps flowing while thousands of connections sit
  // registered; seq/ack bookkeeping must deliver each reply exactly once.
  for (std::uint64_t id = 2; id <= 65; ++id) {
    RequestMessage req;
    req.request_id = id;
    req.object_key = ior.key;
    req.operation = "add";
    req.arguments = {Value(static_cast<std::int32_t>(id)), Value(1)};
    EXPECT_EQ(session_client.invoke(ior, std::move(req))
                  .result_or_throw()
                  .as_i32(),
              static_cast<std::int32_t>(id) + 1);
  }

  const int threads_after = process_threads();
  // The receive budget is fixed: accepting `conns` connections must not have
  // spawned receive threads.  A slack of 2 absorbs incidental client-side
  // threads (e.g. a lazily-started mux receive loop).
  EXPECT_LE(threads_after, threads_before + 2)
      << conns << " connections grew the process from " << threads_before
      << " to " << threads_after << " threads";

  const double registered =
      obs::MetricsRegistry::global().gauge("transport.tcp.epoll_registered")
          .value();
  EXPECT_GE(registered, static_cast<double>(conns));
}

}  // namespace
}  // namespace rt
