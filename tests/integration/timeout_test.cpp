// Tests of request timeouts: virtual-time deadlines in the simulator,
// wall-clock deadlines on the TCP transport, and the fault-tolerance
// proxies recovering from *hung* (overloaded, not crashed) servers.
#include <gtest/gtest.h>

#include <thread>

#include "core/sim_runtime.hpp"
#include "ft/checkpoint.hpp"
#include "ft/proxy.hpp"
#include "orb/cdr.hpp"
#include "orb/tcp_transport.hpp"
#include "sim/work_meter.hpp"

namespace {

/// A service whose call cost is set per instance — "hung" instances charge
/// absurd work, modeling an overloaded or wedged server.
class SlowServant final : public corba::Servant,
                          public ft::CheckpointableServant {
 public:
  explicit SlowServant(double work) : work_(work) {}
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/tests/Slow:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (auto handled = try_dispatch_state(op, args)) return *handled;
    if (op == "add") {
      check_arity(op, args, 1);
      sim::WorkMeter::charge(work_);
      total_ += args[0].as_i64();
      return corba::Value(total_);
    }
    throw corba::BAD_OPERATION(std::string(op));
  }
  corba::Blob get_state() override {
    corba::CdrOutputStream out;
    out.write_i64(total_);
    return out.take_buffer();
  }
  void set_state(const corba::Blob& state) override {
    corba::CdrInputStream in(state);
    total_ = in.read_i64();
  }

 private:
  double work_;
  std::int64_t total_ = 0;
};

class TimeoutTest : public ::testing::Test {
 protected:
  rt::SimRuntime& make_runtime(double timeout) {
    cluster_ = std::make_unique<sim::Cluster>();
    for (int i = 0; i < 3; ++i)
      cluster_->add_host("node" + std::to_string(i), 100.0);
    rt::RuntimeOptions options;
    options.request_timeout = timeout;
    options.winner_stale_after = 2.5;
    runtime_ = std::make_unique<rt::SimRuntime>(*cluster_, options);
    runtime_->events().run_until(0.01);
    return *runtime_;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<rt::SimRuntime> runtime_;
};

TEST_F(TimeoutTest, SimCallTimesOutAtTheVirtualDeadline) {
  rt::SimRuntime& runtime = make_runtime(5.0);
  // 10,000 work units at speed 100 => the call would take 100 s.
  const corba::ObjectRef slow = runtime.deploy(
      "node0", std::make_shared<SlowServant>(1e4), naming::Name::parse("Slow"));
  const double t0 = runtime.events().now();
  try {
    slow.invoke("add", {corba::Value(std::int64_t{1})});
    FAIL() << "expected TIMEOUT";
  } catch (const corba::TIMEOUT& e) {
    EXPECT_EQ(e.completed(), corba::CompletionStatus::completed_maybe);
  }
  EXPECT_NEAR(runtime.events().now() - t0, 5.0, 1e-9);
}

TEST_F(TimeoutTest, FastCallsAreUnaffectedByTheDeadline) {
  rt::SimRuntime& runtime = make_runtime(5.0);
  const corba::ObjectRef fast = runtime.deploy(
      "node0", std::make_shared<SlowServant>(10.0),
      naming::Name::parse("Fast"));
  EXPECT_EQ(fast.invoke("add", {corba::Value(std::int64_t{2})}).as_i64(), 2);
}

TEST_F(TimeoutTest, ZeroTimeoutMeansUnbounded) {
  rt::SimRuntime& runtime = make_runtime(0.0);
  const corba::ObjectRef slow = runtime.deploy(
      "node0", std::make_shared<SlowServant>(1e4), naming::Name::parse("Slow"));
  // Takes 100 virtual seconds but completes.
  EXPECT_EQ(slow.invoke("add", {corba::Value(std::int64_t{3})}).as_i64(), 3);
}

TEST_F(TimeoutTest, ProxyRecoversFromAHungServer) {
  // One wedged instance among healthy ones: the proxy times out, recovers
  // to a healthy instance (restoring state), and the call succeeds — the
  // failure mode that pure COMM_FAILURE detection can never handle.
  rt::SimRuntime& runtime = make_runtime(5.0);
  const naming::Name name = naming::Name::parse("Svc");
  runtime.registry()->register_type(
      "Svc", [] { return std::make_shared<SlowServant>(10.0); });
  runtime.deploy("node0", std::make_shared<SlowServant>(1e6), name);  // hung
  runtime.deploy("node1", std::make_shared<SlowServant>(10.0), name);
  runtime.deploy("node2", std::make_shared<SlowServant>(10.0), name);

  ft::RecoveryPolicy policy;
  policy.max_attempts = 4;
  policy.resolve_strategy = naming::ResolveStrategy::round_robin;
  ft::ProxyConfig config = runtime.make_proxy_config(
      name, "Svc", "svc-1", policy,
      runtime.naming().list_offers(name)[0].ref);  // start on the hung one
  ft::ProxyEngine engine(std::move(config));

  EXPECT_EQ(engine.call("add", {corba::Value(std::int64_t{7})}).as_i64(), 7);
  EXPECT_GE(engine.recoveries(), 1u);
  EXPECT_NE(engine.current().ior().host, "node0");
}

TEST(TcpTimeoutTest, HungTcpServerRaisesTimeout) {
  // A servant that sleeps (wall clock) longer than the client's deadline.
  class Sleeper final : public corba::Servant {
   public:
    std::string_view repo_id() const noexcept override {
      return "IDL:corbaft/tests/Sleeper:1.0";
    }
    corba::Value dispatch(std::string_view op, const corba::ValueSeq&) override {
      if (op == "nap") {
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        return {};
      }
      throw corba::BAD_OPERATION(std::string(op));
    }
  };

  auto server = corba::ORB::init({.endpoint_name = "s", .enable_tcp = true});
  const corba::ObjectRef ref = server->activate(std::make_shared<Sleeper>());

  corba::TcpClientTransport transport(
      corba::TcpClientOptions{.request_timeout_s = 0.15});
  corba::RequestMessage request;
  request.request_id = 1;
  request.object_key = ref.ior().key;
  request.operation = "nap";
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(transport.invoke(ref.ior(), request), corba::TIMEOUT);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.5);  // did not wait for the full 600 ms nap
}

}  // namespace
