// Wire round-trip tests of the in-band telemetry servant: the GIOP-lite
// operations a remote orbtop drives, the `_obs/<host>` registration helper,
// and the orbtop renderings over a real (in-process) naming tree.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/metrics.hpp"
#include "obs/orbtop.hpp"
#include "orb/orb.hpp"

namespace obs {
namespace {

TEST(HealthReport, ValueRoundTripPreservesEveryField) {
  HealthReport report;
  report.host = "node3";
  report.now = 12.5;
  report.report_age = 0.25;
  report.load_index = 1.75;
  report.quarantined = 1;
  report.dispatch_queue_depth = 7;
  report.rpcs = 12345;
  report.rpc_p50 = 0.001;
  report.rpc_p99 = 0.05;
  report.recoveries = 3;
  report.checkpoints = 99;
  report.checkpoint_bytes = 4096;
  report.flight_recorded = 555;
  report.auto_dumps = 2;
  report.sessions_active = 4;
  report.session_resumes = 5;
  report.session_retransmits = 6;
  report.tcp_connections = 8;

  const HealthReport back = HealthReport::from_value(report.to_value());
  EXPECT_EQ(back.host, "node3");
  EXPECT_DOUBLE_EQ(back.now, 12.5);
  EXPECT_DOUBLE_EQ(back.report_age, 0.25);
  EXPECT_DOUBLE_EQ(back.load_index, 1.75);
  EXPECT_EQ(back.quarantined, 1u);
  EXPECT_EQ(back.dispatch_queue_depth, 7u);
  EXPECT_EQ(back.rpcs, 12345u);
  EXPECT_DOUBLE_EQ(back.rpc_p50, 0.001);
  EXPECT_DOUBLE_EQ(back.rpc_p99, 0.05);
  EXPECT_EQ(back.recoveries, 3u);
  EXPECT_EQ(back.checkpoints, 99u);
  EXPECT_EQ(back.checkpoint_bytes, 4096u);
  EXPECT_EQ(back.flight_recorded, 555u);
  EXPECT_EQ(back.auto_dumps, 2u);
  EXPECT_EQ(back.sessions_active, 4u);
  EXPECT_EQ(back.session_resumes, 5u);
  EXPECT_EQ(back.session_retransmits, 6u);
  EXPECT_EQ(back.tcp_connections, 8u);
}

TEST(HealthReport, FromValueRejectsMalformedSequences) {
  EXPECT_THROW(HealthReport::from_value(corba::Value(corba::ValueSeq{})),
               corba::BAD_PARAM);
  EXPECT_THROW(HealthReport::from_value(corba::Value(std::string("nope"))),
               corba::BAD_PARAM);
  // Every node encodes all 18 fields; a shorter sequence is malformed.
  for (const std::size_t size : {14u, 17u}) {
    corba::ValueSeq fields = HealthReport{}.to_value().as_sequence();
    fields.resize(size);
    EXPECT_THROW(HealthReport::from_value(corba::Value(std::move(fields))),
                 corba::BAD_PARAM)
        << size << " fields";
  }
}

class TelemetryWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_shared<corba::InProcessNetwork>();
    server_ = corba::ORB::init({.endpoint_name = "node0", .network = network_});
    client_ = corba::ORB::init({.endpoint_name = "app", .network = network_});
    auto [servant, ref] = naming::NamingContextServant::create_root(server_);
    root_servant_ = servant;
    root_ = naming::NamingContextStub(client_->make_ref(ref.ior()));
  }

  TelemetryStub install(TelemetryOptions options) {
    const corba::ObjectRef ref =
        obs::install_telemetry(server_, *root_servant_, std::move(options));
    return TelemetryStub(client_->make_ref(ref.ior()));
  }

  std::shared_ptr<corba::InProcessNetwork> network_;
  std::shared_ptr<corba::ORB> server_, client_;
  std::shared_ptr<naming::NamingContextServant> root_servant_;
  naming::NamingContextStub root_;
};

TEST_F(TelemetryWireTest, HealthMergesCallbacksAndMetrics) {
  TelemetryOptions options;
  options.host = "node0";
  options.report_age = [] { return 0.5; };
  options.load_index = [] { return 2.25; };
  options.quarantined = [] { return std::uint64_t{3}; };
  options.dispatch_queue_depth = [] { return std::uint64_t{9}; };
  TelemetryStub telemetry = install(std::move(options));
  EXPECT_TRUE(telemetry.is_a(kTelemetryRepoId));

  MetricsRegistry::global().counter("orb.requests_total").inc();
  const HealthReport health = telemetry.health();
  EXPECT_EQ(health.host, "node0");
  EXPECT_DOUBLE_EQ(health.report_age, 0.5);
  EXPECT_DOUBLE_EQ(health.load_index, 2.25);
  EXPECT_EQ(health.quarantined, 3u);
  EXPECT_EQ(health.dispatch_queue_depth, 9u);
  EXPECT_GE(health.rpcs, 1u);
}

TEST_F(TelemetryWireTest, HealthReportsUnknownWithoutCallbacks) {
  TelemetryStub telemetry = install({.host = "node0"});
  const HealthReport health = telemetry.health();
  EXPECT_DOUBLE_EQ(health.report_age, -1.0);
  EXPECT_DOUBLE_EQ(health.load_index, -1.0);
  EXPECT_EQ(health.quarantined, 0u);
  EXPECT_EQ(health.dispatch_queue_depth, 0u);
}

TEST_F(TelemetryWireTest, InstallBindsUnderReservedPathAndReplacesOnRestart) {
  install({.host = "node0"});
  const corba::ObjectRef first = root_.resolve(naming::Name::parse("_obs/node0"));
  ASSERT_FALSE(first.is_nil());
  // A restarted node re-installs; rebind replaces the stale registration
  // instead of raising AlreadyBound.
  install({.host = "node0"});
  const corba::ObjectRef second =
      root_.resolve(naming::Name::parse("_obs/node0"));
  EXPECT_FALSE(second.ior() == first.ior());
  // A second host shares the `_obs` context.
  install({.host = "node1"});
  EXPECT_FALSE(root_.resolve(naming::Name::parse("_obs/node1")).is_nil());
}

TEST_F(TelemetryWireTest, OrbtopCollectsRendersAndEmitsJson) {
  install({.host = "node0", .load_index = [] { return 1.0; }});
  install({.host = "node1", .load_index = [] { return 0.5; }});

  const ClusterSnapshot snapshot = collect_cluster(root_);
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_EQ(snapshot.nodes[0].name, "node0");
  EXPECT_TRUE(snapshot.nodes[0].reachable);
  EXPECT_EQ(snapshot.nodes[1].name, "node1");

  const std::string table = render_table(snapshot);
  EXPECT_EQ(table.find("HOST"), 0u);
  // node1 has the lower (better) load index and ranks first.
  EXPECT_LT(table.find("node1"), table.find("node0"));

  const std::string json = render_json(snapshot);
  EXPECT_EQ(json.find("{\"schema_version\": 1, \"collected_at\": "), 0u);
  EXPECT_NE(json.find("\"name\": \"node0\", \"reachable\": true"),
            std::string::npos);
  EXPECT_NE(json.find("\"load_index\": 0.5"), std::string::npos);
}

TEST_F(TelemetryWireTest, OrbtopKeepsUnreachableNodesInTheTable) {
  install({.host = "node0"});
  // A stale registration pointing at a deactivated object: the row must
  // survive as "unreachable", not break the whole collection.
  auto dead = std::make_shared<TelemetryServant>(TelemetryOptions{.host = "x"});
  const corba::ObjectRef dead_ref = server_->activate(dead, "DeadTelemetry");
  root_.rebind(naming::Name::parse("_obs/ghost"), dead_ref);
  server_->adapter().deactivate(dead_ref.ior().key);

  const ClusterSnapshot snapshot = collect_cluster(root_);
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_EQ(snapshot.nodes[0].name, "ghost");
  EXPECT_FALSE(snapshot.nodes[0].reachable);
  EXPECT_FALSE(snapshot.nodes[0].error.empty());
  EXPECT_TRUE(snapshot.nodes[1].reachable);
  const std::string json = render_json(snapshot);
  EXPECT_NE(json.find("\"reachable\": false, \"error\": "), std::string::npos);
}

}  // namespace
}  // namespace obs
