// M1 — ORB micro benchmarks: CDR marshaling throughput, tagged-value
// encoding, IOR stringification, and end-to-end invocation latency over the
// in-process and TCP transports.  These are real wall-clock measurements
// (google-benchmark), unlike the virtual-time experiment harnesses.
//
// Beyond the google-benchmark timings, main() always runs the multiplexing
// sweep: concurrent clients × pipeline depth over the TCP transport's shared
// multiplexed connection, emitting BENCH_multiplex.json for the perf
// trajectory.
// The session sweep (BENCH_session.json) compares the resumable-session
// reconnect-with-replay path against the batched-failure + reissue path a
// caller without sessions pays for the same connection loss, and records the
// retransmit-buffer footprint as a function of pipeline depth.
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "obs/flight_recorder.hpp"
#include "orb/dii.hpp"
#include "orb/orb.hpp"
#include "orb/reactor.hpp"
#include "orb/tcp_transport.hpp"

namespace {

void BM_CdrEncodeDoubles(benchmark::State& state) {
  const std::vector<double> values(static_cast<std::size_t>(state.range(0)),
                                   3.14);
  for (auto _ : state) {
    corba::CdrOutputStream out;
    out.write_f64_seq(values);
    benchmark::DoNotOptimize(out.buffer().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_CdrEncodeDoubles)->Arg(16)->Arg(256)->Arg(4096);

void BM_CdrDecodeDoubles(benchmark::State& state) {
  const std::vector<double> values(static_cast<std::size_t>(state.range(0)),
                                   3.14);
  corba::CdrOutputStream out;
  out.write_f64_seq(values);
  for (auto _ : state) {
    corba::CdrInputStream in(out.buffer());
    benchmark::DoNotOptimize(in.read_f64_seq());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_CdrDecodeDoubles)->Arg(16)->Arg(256)->Arg(4096);

void BM_CdrSwappedDecode(benchmark::State& state) {
  // Byte-order conversion path (receiver with opposite endianness).
  const std::vector<double> values(256, 3.14);
  const corba::ByteOrder other =
      corba::native_byte_order() == corba::ByteOrder::little_endian
          ? corba::ByteOrder::big_endian
          : corba::ByteOrder::little_endian;
  corba::CdrOutputStream out(other);
  out.write_f64_seq(values);
  for (auto _ : state) {
    corba::CdrInputStream in(out.buffer(), other);
    benchmark::DoNotOptimize(in.read_f64_seq());
  }
}
BENCHMARK(BM_CdrSwappedDecode);

void BM_ValueEncodeDecode(benchmark::State& state) {
  corba::ValueSeq seq;
  seq.emplace_back(std::int64_t{7});
  seq.emplace_back("operation-payload");
  seq.emplace_back(std::vector<double>(32, 1.0));
  const corba::Value value{std::move(seq)};
  for (auto _ : state) {
    corba::CdrOutputStream out;
    value.encode(out);
    corba::CdrInputStream in(out.buffer());
    benchmark::DoNotOptimize(corba::Value::decode(in));
  }
}
BENCHMARK(BM_ValueEncodeDecode);

void BM_IorStringRoundTrip(benchmark::State& state) {
  corba::IOR ior;
  ior.type_id = "IDL:corbaft/opt/OptWorker:1.0";
  ior.protocol = std::string(corba::protocol::tcp);
  ior.host = "192.168.17.23";
  ior.port = 2809;
  ior.key = corba::ObjectKey::from_string("worker#a17.42");
  for (auto _ : state) {
    benchmark::DoNotOptimize(corba::IOR::from_string(ior.to_string()));
  }
}
BENCHMARK(BM_IorStringRoundTrip);

class EchoServant final : public corba::Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/bench/Echo:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (op == "echo") return args.at(0);
    if (op == "slow_echo") {
      // Holds the reply back long enough for a pipelined window to pile up
      // unacked in the session retransmit buffer (the depth sweep).
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return args.at(0);
    }
    throw corba::BAD_OPERATION(std::string(op));
  }
};

void BM_InprocInvoke(benchmark::State& state) {
  auto network = std::make_shared<corba::InProcessNetwork>();
  auto server = corba::ORB::init({.endpoint_name = "s", .network = network});
  auto client = corba::ORB::init({.endpoint_name = "c", .network = network});
  const corba::ObjectRef ref =
      client->make_ref(server->activate(std::make_shared<EchoServant>()).ior());
  const corba::Value payload(std::vector<double>(
      static_cast<std::size_t>(state.range(0)), 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.invoke("echo", {payload}));
  }
}
BENCHMARK(BM_InprocInvoke)->Arg(1)->Arg(128)->Arg(2048);

void BM_TcpInvoke(benchmark::State& state) {
  auto server = corba::ORB::init({.endpoint_name = "s", .enable_tcp = true});
  auto client = corba::ORB::init({.endpoint_name = "c", .enable_tcp = true});
  const corba::ObjectRef ref =
      client->make_ref(server->activate(std::make_shared<EchoServant>()).ior());
  const corba::Value payload(std::vector<double>(
      static_cast<std::size_t>(state.range(0)), 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.invoke("echo", {payload}));
  }
}
BENCHMARK(BM_TcpInvoke)->Arg(1)->Arg(128)->Arg(2048);

void BM_TcpDeferredBatch(benchmark::State& state) {
  // Eight deferred requests in flight at once (the manager/worker pattern).
  auto server = corba::ORB::init({.endpoint_name = "s", .enable_tcp = true});
  auto client = corba::ORB::init({.endpoint_name = "c", .enable_tcp = true});
  const corba::ObjectRef ref =
      client->make_ref(server->activate(std::make_shared<EchoServant>()).ior());
  const corba::Value payload(std::vector<double>(64, 1.0));
  for (auto _ : state) {
    std::vector<corba::Request> requests;
    for (int i = 0; i < 8; ++i) {
      requests.emplace_back(ref, "echo");
      requests.back().add_argument(payload);
      requests.back().send_deferred();
    }
    for (corba::Request& request : requests) request.get_response();
  }
}
BENCHMARK(BM_TcpDeferredBatch);

// --- multiplexing sweep ------------------------------------------------------

struct SweepPoint {
  std::string mode;
  int clients = 0;
  int depth = 0;
  std::uint64_t calls = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
};

/// One (clients, depth) cell: every client thread drives its OWN echo
/// servant (distinct object keys, so the server's FIFO-per-key guarantee
/// does not serialize the comparison) with `depth` requests in flight.
SweepPoint run_sweep_point(int clients, int depth, int calls_per_client) {
  using clock = std::chrono::steady_clock;
  auto server = corba::ORB::init({.endpoint_name = "s", .enable_tcp = true});
  auto client = corba::ORB::init({.endpoint_name = "c", .enable_tcp = true});

  std::vector<corba::ObjectRef> refs;
  for (int i = 0; i < clients; ++i)
    refs.push_back(client->make_ref(
        server->activate(std::make_shared<EchoServant>()).ior()));
  const corba::Value payload(std::vector<double>(16, 1.0));

  bench::LatencyRecorder latency("bench.multiplex_rpc");
  const auto t0 = clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const corba::ObjectRef& ref = refs[static_cast<std::size_t>(c)];
      if (depth <= 1) {
        // Synchronous path (what a stub call does).
        for (int i = 0; i < calls_per_client; ++i) {
          const auto sent = clock::now();
          ref.invoke("echo", {payload});
          latency.record(
              std::chrono::duration<double>(clock::now() - sent).count());
        }
        return;
      }
      // Pipelined path: windows of `depth` deferred requests.
      int remaining = calls_per_client;
      while (remaining > 0) {
        const int batch = std::min(depth, remaining);
        std::vector<corba::Request> requests;
        std::vector<clock::time_point> sent;
        requests.reserve(static_cast<std::size_t>(batch));
        for (int i = 0; i < batch; ++i) {
          requests.emplace_back(ref, "echo");
          requests.back().add_argument(payload);
          sent.push_back(clock::now());
          requests.back().send_deferred();
        }
        for (int i = 0; i < batch; ++i) {
          requests[static_cast<std::size_t>(i)].get_response();
          latency.record(std::chrono::duration<double>(
                             clock::now() - sent[static_cast<std::size_t>(i)])
                             .count());
        }
        remaining -= batch;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall =
      std::chrono::duration<double>(clock::now() - t0).count();

  SweepPoint point;
  point.mode = "multiplexed";
  point.clients = clients;
  point.depth = depth;
  point.calls = static_cast<std::uint64_t>(clients) *
                static_cast<std::uint64_t>(calls_per_client);
  point.wall_s = wall;
  point.throughput_rps = static_cast<double>(point.calls) / wall;
  point.p50_s = latency.quantile(0.5);
  point.p99_s = latency.quantile(0.99);
  point.mean_s = latency.mean();
  return point;
}

void run_multiplex_sweep() {
  const bool smoke = bench::smoke_mode();
  const int calls_per_client = smoke ? 150 : 2000;
  const std::vector<int> client_counts = smoke ? std::vector<int>{1, 2}
                                               : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> depths = {1, 8};

  std::printf("\nM-mux — TCP transport: concurrent clients x pipeline depth\n");
  std::printf("%-12s %8s %6s %10s %12s %10s %10s\n", "mode", "clients",
              "depth", "calls", "rps", "p50_us", "p99_us");
  bench::print_rule(74);

  std::vector<SweepPoint> points;
  std::vector<bench::JsonRow> rows;
  for (const int clients : client_counts) {
    for (const int depth : depths) {
      const SweepPoint p = run_sweep_point(clients, depth, calls_per_client);
      std::printf("%-12s %8d %6d %10llu %12.0f %10.1f %10.1f\n",
                  p.mode.c_str(), p.clients, p.depth,
                  static_cast<unsigned long long>(p.calls), p.throughput_rps,
                  p.p50_s * 1e6, p.p99_s * 1e6);
      rows.push_back({bench::jstr("mode", p.mode),
                      bench::jint("clients", std::uint64_t(p.clients)),
                      bench::jint("depth", std::uint64_t(p.depth)),
                      bench::jint("calls", p.calls),
                      bench::jnum("wall_s", p.wall_s),
                      bench::jnum("throughput_rps", p.throughput_rps),
                      bench::jnum("p50_s", p.p50_s),
                      bench::jnum("p99_s", p.p99_s),
                      bench::jnum("mean_s", p.mean_s)});
      points.push_back(p);
    }
  }

  // Flight-recorder overhead: the same single-client synchronous point with
  // the always-on recorder enabled (the default) vs force-disabled.  The
  // rpc_start/rpc_end record path is two relaxed atomic claims per call, so
  // the two p50s must land in the same latency bucket.
  for (const bool enabled : {true, false}) {
    obs::FlightRecorder::global().set_enabled(enabled);
    SweepPoint p = run_sweep_point(1, 1, calls_per_client);
    p.mode = enabled ? "recorder_on" : "recorder_off";
    std::printf("%-12s %8d %6d %10llu %12.0f %10.1f %10.1f\n", p.mode.c_str(),
                p.clients, p.depth, static_cast<unsigned long long>(p.calls),
                p.throughput_rps, p.p50_s * 1e6, p.p99_s * 1e6);
    rows.push_back({bench::jstr("mode", p.mode),
                    bench::jint("clients", std::uint64_t(p.clients)),
                    bench::jint("depth", std::uint64_t(p.depth)),
                    bench::jint("calls", p.calls),
                    bench::jnum("wall_s", p.wall_s),
                    bench::jnum("throughput_rps", p.throughput_rps),
                    bench::jnum("p50_s", p.p50_s),
                    bench::jnum("p99_s", p.p99_s),
                    bench::jnum("mean_s", p.mean_s)});
    points.push_back(p);
  }
  obs::FlightRecorder::global().set_enabled(true);

  // Headline comparison: what pipelining buys at max concurrency, and the
  // single-client latency of the demux machinery.
  auto find = [&](const std::string& mode, int clients,
                  int depth) -> const SweepPoint* {
    for (const SweepPoint& p : points)
      if (p.mode == mode && p.clients == clients && p.depth == depth)
        return &p;
    return nullptr;
  };
  const int top = client_counts.back();
  const SweepPoint* deep = find("multiplexed", top, 8);
  const SweepPoint* sync = find("multiplexed", top, 1);
  const SweepPoint* single = find("multiplexed", 1, 1);
  if (deep && sync && single) {
    std::printf("\nthroughput at %d clients: %.0f rps (depth 8) vs %.0f rps "
                "(depth 1)\n",
                top, deep->throughput_rps, sync->throughput_rps);
    std::printf("single-client p50: %.1f us\n", single->p50_s * 1e6);
  }
  const SweepPoint* rec_on = find("recorder_on", 1, 1);
  const SweepPoint* rec_off = find("recorder_off", 1, 1);
  if (rec_on && rec_off)
    std::printf("flight recorder p50: %.1f us (on) vs %.1f us (off)\n",
                rec_on->p50_s * 1e6, rec_off->p50_s * 1e6);
  bench::write_bench_json("BENCH_multiplex.json", "micro_orb_multiplex", rows);
}

// --- session sweep -----------------------------------------------------------

/// Byte-level TCP relay on loopback: clients connect to port(), bytes are
/// pumped to the real server, and sever() cuts every live pair — a
/// deterministic "connection reset, server healthy" fault for measuring the
/// resume path on real sockets.
class BenchRelay {
 public:
  explicit BenchRelay(std::uint16_t target_port) : target_port_(target_port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~BenchRelay() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
    sever();
    std::vector<std::thread> pumps;
    {
      std::lock_guard lock(mu_);
      pumps.swap(pumps_);
    }
    for (std::thread& pump : pumps) pump.join();
    std::lock_guard lock(mu_);
    for (const auto& [a, b] : pairs_) {
      ::close(a);
      ::close(b);
    }
  }

  std::uint16_t port() const noexcept { return port_; }

  void sever() {
    std::lock_guard lock(mu_);
    for (const auto& [a, b] : pairs_) {
      ::shutdown(a, SHUT_RDWR);
      ::shutdown(b, SHUT_RDWR);
    }
  }

 private:
  void accept_loop() {
    for (;;) {
      const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd < 0) {
        if (stopping_.load()) return;
        continue;
      }
      const int server_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(target_port_);
      if (::connect(server_fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::close(server_fd);
        ::close(client_fd);
        continue;
      }
      std::lock_guard lock(mu_);
      if (stopping_.load()) {
        ::close(server_fd);
        ::close(client_fd);
        return;
      }
      pairs_.push_back({client_fd, server_fd});
      pumps_.emplace_back([client_fd, server_fd] { pump(client_fd, server_fd); });
      pumps_.emplace_back([client_fd, server_fd] { pump(server_fd, client_fd); });
    }
  }

  static void pump(int from, int to) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
      if (n <= 0) break;
      ssize_t sent = 0;
      while (sent < n) {
        const ssize_t w = ::send(to, buf + sent, n - sent, MSG_NOSIGNAL);
        if (w <= 0) { sent = -1; break; }
        sent += w;
      }
      if (sent < 0) break;
    }
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }

  std::uint16_t port_ = 0;
  std::uint16_t target_port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<std::pair<int, int>> pairs_;
  std::vector<std::thread> pumps_;
};

corba::RequestMessage echo_request(const corba::IOR& ior, std::uint64_t id,
                                   const char* op,
                                   const corba::Value& payload) {
  corba::RequestMessage request;
  request.request_id = id;
  request.object_key = ior.key;
  request.operation = op;
  request.arguments = {payload};
  return request;
}

void run_session_sweep() {
  const bool smoke = bench::smoke_mode();
  const int trials = smoke ? 5 : 40;
  auto server = corba::ORB::init({.endpoint_name = "s", .enable_tcp = true});
  const corba::ObjectRef ref =
      server->activate(std::make_shared<EchoServant>());
  const corba::Value payload(std::vector<double>(16, 1.0));
  std::vector<bench::JsonRow> rows;

  // Resume vs recovery: the same mid-stream connection loss, absorbed by the
  // session layer (reconnect + replay, the call completes exactly-once) vs
  // surfaced to the caller (COMM_FAILURE, reconnect, reissue) — the latency
  // a proxy pays per reset with and without the session layer.
  std::printf("\nM-sess — connection loss: session resume vs batched "
              "failure + reissue\n");
  std::printf("%-12s %8s %10s %10s %10s\n", "mode", "trials", "p50_us",
              "p99_us", "mean_us");
  bench::print_rule(56);
  for (const bool sessions : {true, false}) {
    BenchRelay relay(ref.ior().port);
    corba::IOR ior = ref.ior();
    ior.port = relay.port();
    corba::TcpClientOptions options;
    options.enable_sessions = sessions;
    options.resume_backoff_s = 0.002;
    corba::TcpClientTransport transport(options);
    std::uint64_t id = 1;
    (void)transport.invoke(ior, echo_request(ior, id++, "echo", payload));

    bench::LatencyRecorder latency(sessions ? "bench.session_resume"
                                            : "bench.session_recovery");
    using clock = std::chrono::steady_clock;
    for (int trial = 0; trial < trials; ++trial) {
      relay.sever();
      const auto start = clock::now();
      if (sessions) {
        // One call, one reply: the transport resumes under the covers.
        (void)transport.invoke(ior, echo_request(ior, id++, "echo", payload));
      } else {
        // The caller sees the loss and must reissue (the FT-proxy pattern,
        // minus re-resolve — this is the floor of the recovery path).
        for (;;) {
          try {
            (void)transport.invoke(ior,
                                   echo_request(ior, id++, "echo", payload));
            break;
          } catch (const corba::COMM_FAILURE&) {
          }
        }
      }
      latency.record(
          std::chrono::duration<double>(clock::now() - start).count());
    }
    const std::string mode = sessions ? "resume" : "recovery";
    std::printf("%-12s %8d %10.1f %10.1f %10.1f\n", mode.c_str(), trials,
                latency.quantile(0.5) * 1e6, latency.quantile(0.99) * 1e6,
                latency.mean() * 1e6);
    rows.push_back({bench::jstr("mode", mode),
                    bench::jint("trials", std::uint64_t(trials)),
                    bench::jnum("p50_s", latency.quantile(0.5)),
                    bench::jnum("p99_s", latency.quantile(0.99)),
                    bench::jnum("mean_s", latency.mean())});
  }

  // Retransmit-buffer footprint: a pipelined window of `depth` unacked
  // calls held open against a slow servant — the memory the exactly-once
  // guarantee costs, straight from the transport.session gauge.
  std::printf("\nM-sess — retransmit buffer vs pipeline depth\n");
  std::printf("%8s %16s\n", "depth", "buffered_bytes");
  bench::print_rule(26);
  obs::Gauge& buffered =
      obs::MetricsRegistry::global().gauge(
          "transport.session.retransmit_buffer_bytes");
  for (const int depth : {1, 4, 16, 64}) {
    corba::TcpClientOptions options;
    options.enable_sessions = true;
    corba::TcpClientTransport transport(options);
    const corba::IOR ior = ref.ior();
    std::uint64_t id = 1;
    (void)transport.invoke(ior, echo_request(ior, id++, "echo", payload));
    const double before = buffered.value();
    std::vector<std::unique_ptr<corba::PendingReply>> window;
    for (int i = 0; i < depth; ++i)
      window.push_back(
          transport.send(ior, echo_request(ior, id++, "slow_echo", payload)));
    const double in_flight = buffered.value() - before;
    for (const auto& pending : window) (void)pending->get();
    std::printf("%8d %16.0f\n", depth, in_flight);
    rows.push_back({bench::jstr("mode", "retransmit_buffer"),
                    bench::jint("depth", std::uint64_t(depth)),
                    bench::jnum("buffered_bytes", in_flight)});
  }

  bench::write_bench_json("BENCH_session.json", "micro_orb_session", rows);
}

// --- connections sweep -------------------------------------------------------
//
// The reactor's claim: connection count is decoupled from thread count.  Each
// cell opens `connections` sockets against one endpoint (most idle, a small
// active set driving synchronous calls) and records throughput, latency and
// the server's peak thread cost.

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::stoi(line.substr(sizeof("Threads:") - 1));
  }
  return -1;
}

struct ConnPoint {
  std::string mode;
  int connections = 0;
  std::uint64_t calls = 0;
  double throughput_rps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  int peak_threads = 0;  ///< process thread growth while the sockets are open
};

ConnPoint run_conn_point(int connections, int active, int calls_per_active) {
  using clock = std::chrono::steady_clock;
  auto server = corba::ORB::init(
      {.endpoint_name = "s", .enable_tcp = true, .io_threads = 2});
  const corba::IOR ior =
      server->activate(std::make_shared<EchoServant>()).ior();
  const int threads_before = process_threads();

  std::vector<corba::Socket> sockets;
  sockets.reserve(static_cast<std::size_t>(connections));
  for (int i = 0; i < connections; ++i)
    sockets.push_back(corba::Socket::connect("127.0.0.1", ior.port));
  // Let the acceptor catch up with the connect burst, then measure before
  // the harness spawns its own driver threads: the delta is purely what the
  // server paid to hold `connections` sockets open (0 for the reactor).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int threads_with_conns = process_threads();

  bench::LatencyRecorder latency("bench.connections_rpc");
  corba::CdrOutputStream body;
  {
    corba::RequestMessage req;
    req.request_id = 1;
    req.object_key = ior.key;
    req.operation = "echo";
    req.arguments = {corba::Value(std::vector<double>(16, 1.0))};
    req.encode_body(body);
  }
  const auto t0 = clock::now();
  std::vector<std::thread> drivers;
  for (int c = 0; c < active; ++c) {
    drivers.emplace_back([&, c] {
      corba::Socket& socket = sockets[static_cast<std::size_t>(c)];
      corba::MessageHeader header;
      std::vector<std::byte> reply;
      for (int i = 0; i < calls_per_active; ++i) {
        const auto sent = clock::now();
        socket.send_frame(corba::MessageType::request, body);
        if (!socket.recv_frame(header, reply)) return;
        latency.record(
            std::chrono::duration<double>(clock::now() - sent).count());
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();

  ConnPoint point;
  point.mode = "reactor";
  point.connections = connections;
  point.calls =
      static_cast<std::uint64_t>(active) * static_cast<std::uint64_t>(calls_per_active);
  point.throughput_rps = static_cast<double>(point.calls) / wall;
  point.p50_s = latency.quantile(0.5);
  point.p99_s = latency.quantile(0.99);
  point.peak_threads = threads_with_conns - threads_before;
  return point;
}

void run_connections_sweep() {
  const bool smoke = bench::smoke_mode();
  const std::vector<int> conn_counts =
      smoke ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024, 4096};
  const int calls_per_active = smoke ? 100 : 1000;
  const int active = smoke ? 8 : 16;
  corba::raise_nofile_soft_limit(
      static_cast<std::size_t>(3 * conn_counts.back() + 256));

  std::printf("\nM-conn — server receive path: connections\n");
  std::printf("%-10s %12s %10s %12s %10s %10s %13s\n", "mode", "connections",
              "calls", "rps", "p50_us", "p99_us", "server_threads");
  bench::print_rule(82);

  std::vector<bench::JsonRow> rows;
  ConnPoint tail;
  for (const int connections : conn_counts) {
    const ConnPoint p = run_conn_point(connections, active, calls_per_active);
    std::printf("%-10s %12d %10llu %12.0f %10.1f %10.1f %13d\n",
                p.mode.c_str(), p.connections,
                static_cast<unsigned long long>(p.calls), p.throughput_rps,
                p.p50_s * 1e6, p.p99_s * 1e6, p.peak_threads);
    rows.push_back({bench::jstr("mode", p.mode),
                    bench::jint("connections", std::uint64_t(p.connections)),
                    bench::jint("calls", p.calls),
                    bench::jnum("throughput_rps", p.throughput_rps),
                    bench::jnum("p50_s", p.p50_s),
                    bench::jnum("p99_s", p.p99_s),
                    bench::jint("peak_threads",
                                std::uint64_t(std::max(p.peak_threads, 0)))});
    tail = p;
  }
  std::printf("\nreactor at %d connections: %.0f rps on %d server threads\n",
              tail.connections, tail.throughput_rps, tail.peak_threads);
  bench::write_bench_json("BENCH_reactor.json", "micro_orb_connections", rows);
}

}  // namespace

int main(int argc, char** argv) {
  // Smoke runs skip the google-benchmark timings (they auto-calibrate and
  // take seconds); the multiplex sweep and its JSON run either way.
  if (!bench::smoke_mode()) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  run_multiplex_sweep();
  run_session_sweep();
  run_connections_sweep();
  return 0;
}
