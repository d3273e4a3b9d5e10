// orbtop against live clusters: the collector walks a real naming tree and
// polls every `_obs/<host>` telemetry servant, and the `--json` rendering is
// well-formed JSON — proved with a strict little validator, against both the
// simulated NOW deployment and a real TCP cluster.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <string>
#include <thread>

#include "core/sim_runtime.hpp"
#include "obs/event_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/orbtop.hpp"
#include "obs/telemetry.hpp"
#include "orb/orb.hpp"

namespace rt {
namespace {

// --- minimal JSON well-formedness checker ----------------------------------
// Recursive descent over the whole grammar; returns true iff the entire
// input is exactly one valid JSON value.  No DOM, no allocation.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker checker(text);
    checker.skip_ws();
    if (!checker.value()) return false;
    checker.skip_ws();
    return checker.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
            else
              ++pos_;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    eat('-');
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    switch (peek()) {
      case '{': {
        ++pos_;
        skip_ws();
        if (eat('}')) return true;
        do {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (!eat(':')) return false;
          if (!value()) return false;
          skip_ws();
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        skip_ws();
        if (eat(']')) return true;
        do {
          if (!value()) return false;
          skip_ws();
        } while (eat(','));
        return eat(']');
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonCheckerSelfTest, AcceptsValidRejectsBroken) {
  EXPECT_TRUE(JsonChecker::valid("{\"a\": [1, 2.5e-3, \"x\\n\", true, null]}"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\": }"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\": 1} trailing"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\": 1,}"));
  EXPECT_FALSE(JsonChecker::valid("\"unterminated"));
  EXPECT_FALSE(JsonChecker::valid("[1 2]"));
}

// Node names and errors come off the wire, and one hostile string must not
// corrupt the whole export: quotes, backslashes and control characters are
// escaped per RFC 8259.
TEST(OrbtopJsonTest, HostileNodeNameAndErrorAreEscaped) {
  const std::string hostile = "bad\nname\\with\"quote\tand\x01";
  obs::ClusterSnapshot snapshot;
  obs::NodeStatus node;
  node.name = hostile;
  node.error = "refused: " + hostile;
  snapshot.nodes.push_back(node);

  const std::string json = obs::render_json(snapshot);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  const std::string escaped = "bad\\nname\\\\with\\\"quote\\tand\\u0001";
  EXPECT_NE(json.find("\"name\": \"" + escaped + "\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"error\": \"refused: " + escaped + "\""),
            std::string::npos)
      << json;
}

class EchoServant : public corba::Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/tests/Echo:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (op == "echo") {
      check_arity(op, args, 1);
      return args[0];
    }
    throw corba::BAD_OPERATION(std::string(op));
  }
};

TEST(OrbtopSimClusterTest, CollectsEveryNodeAndEmitsWellFormedJson) {
  sim::Cluster cluster;
  for (int i = 0; i < 3; ++i)
    cluster.add_host("node" + std::to_string(i), 100.0);
  SimRuntime runtime(cluster);
  runtime.events().run_until(2.5);  // load reports flow

  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy_everywhere(name, "Echo");
  for (int i = 0; i < 5; ++i)
    runtime.resolve(name).invoke("echo", {corba::Value(std::int64_t{i})});

  naming::NamingContextStub root = runtime.naming();
  const obs::ClusterSnapshot snapshot = obs::collect_cluster(root);

  // Every worker host registered a telemetry servant; the infra host did not.
  ASSERT_EQ(snapshot.nodes.size(), 3u);
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const obs::NodeStatus& node = snapshot.nodes[i];
    EXPECT_EQ(node.name, "node" + std::to_string(i));
    ASSERT_TRUE(node.reachable) << node.error;
    EXPECT_EQ(node.health.host, node.name);
    // Load reports arrived, so age and index are known (>= 0), and the
    // process-wide RPC counter has seen the echo traffic.
    EXPECT_GE(node.health.report_age, 0.0);
    EXPECT_GE(node.health.load_index, 0.0);
    EXPECT_GT(node.health.rpcs, 0u);
  }
  // The offer table lists the application pool but never the reserved tree.
  ASSERT_EQ(snapshot.offers.size(), 1u);
  EXPECT_EQ(snapshot.offers[0].name, "Echo");
  EXPECT_EQ(snapshot.offers[0].offers, 3u);

  const std::string json = obs::render_json(snapshot);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"name\": \"node1\""), std::string::npos);
  EXPECT_FALSE(obs::render_table(snapshot).empty());
}

TEST(OrbtopTcpClusterTest, PollsTelemetryOverRealSocketsAndEmitsJson) {
  // Two server processes (ORBs with TCP endpoints) sharing one naming root,
  // and a pure-TCP client bootstrapped from the stringified IOR — exactly
  // what the orbtop CLI does.
  auto alpha = corba::ORB::init({.endpoint_name = "alpha", .enable_tcp = true});
  auto beta = corba::ORB::init({.endpoint_name = "beta", .enable_tcp = true});
  auto [root_servant, root_ref] =
      naming::NamingContextServant::create_root(alpha);
  obs::install_telemetry(alpha, *root_servant, {.host = "alpha"});
  obs::install_telemetry(beta, *root_servant, {.host = "beta"});
  root_servant->bind_offer(naming::Name::parse("Echo"),
                           alpha->activate(std::make_shared<EchoServant>()),
                           "alpha");

  auto watcher =
      corba::ORB::init({.endpoint_name = "watcher", .enable_tcp = true});
  naming::NamingContextStub root(
      watcher->string_to_object(alpha->object_to_string(root_ref)));

  const obs::ClusterSnapshot snapshot = obs::collect_cluster(root);
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_EQ(snapshot.nodes[0].name, "alpha");
  EXPECT_EQ(snapshot.nodes[1].name, "beta");
  for (const obs::NodeStatus& node : snapshot.nodes) {
    ASSERT_TRUE(node.reachable) << node.name << ": " << node.error;
    EXPECT_EQ(node.health.host, node.name);
  }
  ASSERT_EQ(snapshot.offers.size(), 1u);
  EXPECT_EQ(snapshot.offers[0].name, "Echo");

  const std::string json = obs::render_json(snapshot);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"name\": \"beta\", \"reachable\": true"),
            std::string::npos);
}

TEST(OrbtopSimClusterTest, PushCollectorStreamsWithZeroPollingRpcs) {
  sim::Cluster cluster;
  for (int i = 0; i < 2; ++i)
    cluster.add_host("node" + std::to_string(i), 100.0);
  RuntimeOptions options;
  options.metrics_epoch = 0.5;  // runtime-level metrics.delta producer
  SimRuntime runtime(cluster, options);
  runtime.events().run_until(2.5);

  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy_everywhere(name, "Echo");

  naming::NamingContextStub root = runtime.naming();
  obs::PushCollector collector(runtime.client_orb(), root);
  // The consumer's IOR is the dedupe identity: subscribing through both
  // nodes' servants of this shared-process cluster lands one subscription.
  EXPECT_EQ(collector.subscriptions(), 2u);
  EXPECT_EQ(obs::EventChannel::global().subscriber_count(), 1u);

  // Traffic + epochs + load reports flow; deliveries ride the virtual clock.
  for (int i = 0; i < 5; ++i)
    runtime.resolve(name).invoke("echo", {corba::Value(std::int64_t{i})});
  runtime.events().run_until(6.0);
  EXPECT_GT(collector.events_received(), 0u);

  const obs::ClusterSnapshot snapshot = collector.snapshot();
  EXPECT_EQ(snapshot.transport, "push");
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  for (const obs::NodeStatus& node : snapshot.nodes) {
    EXPECT_TRUE(node.reachable) << node.error;
    // load.report events refreshed the Winner columns ...
    EXPECT_GE(node.health.load_index, 0.0);
    EXPECT_GE(node.health.report_age, 0.0);
    // ... and metrics.delta events the RPC columns.
    EXPECT_GT(node.health.rpcs, 0u);
  }
  EXPECT_NE(obs::render_json(snapshot).find("\"transport\": \"push\""),
            std::string::npos);
  EXPECT_NE(obs::render_json(obs::collect_cluster(root))
                .find("\"transport\": \"poll\""),
            std::string::npos);

  // The zero-polling contract: snapshot() is assembled locally.  Under the
  // simulator any RPC must run the (currently idle) event queue, and the
  // process-wide request counter must not move.
  const obs::Counter& requests =
      obs::MetricsRegistry::global().counter("orb.requests_total");
  const std::uint64_t before = requests.value();
  (void)collector.snapshot();
  (void)collector.snapshot();
  EXPECT_EQ(requests.value(), before);
}

TEST(OrbtopSimClusterTest, PushCollectorStreamsSlowestTraces) {
  sim::Cluster cluster;
  for (int i = 0; i < 2; ++i)
    cluster.add_host("node" + std::to_string(i), 100.0);
  RuntimeOptions options;
  options.trace_sample_n = 1;  // span exporter feeds the trace.span topic
  SimRuntime runtime(cluster, options);
  runtime.events().run_until(2.5);

  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy_everywhere(name, "Echo");

  naming::NamingContextStub root = runtime.naming();
  obs::PushCollector collector(runtime.client_orb(), root);

  // Spread traced calls over virtual time: later traffic advances the
  // assembler's watermark past the earlier traces' completion linger.
  for (int i = 0; i < 10; ++i) {
    runtime.resolve(name).invoke("echo", {corba::Value(std::int64_t{i})});
    runtime.events().run_until(runtime.events().now() + 0.5);
  }

  const obs::ClusterSnapshot snapshot = collector.snapshot();
  ASSERT_FALSE(snapshot.traces.empty());
  for (const obs::TraceLine& line : snapshot.traces) {
    EXPECT_NE(line.trace_id, 0u);
    EXPECT_GT(line.total_ms, 0.0);
    EXPECT_FALSE(line.dominant.empty());
  }
  // The leaderboard leads with a client call tree, slowest first.
  EXPECT_NE(snapshot.traces.front().root_op.find("rpc.client"),
            std::string::npos);
  for (std::size_t i = 1; i < snapshot.traces.size(); ++i)
    EXPECT_GE(snapshot.traces[i - 1].total_ms, snapshot.traces[i].total_ms);

  const std::string table = obs::render_table(snapshot);
  EXPECT_NE(table.find("traces:"), std::string::npos);
  EXPECT_NE(table.find("DOMINANT"), std::string::npos);
  const std::string json = obs::render_json(snapshot);
  EXPECT_NE(json.find("\"traces\": ["), std::string::npos);
  EXPECT_NE(json.find("\"root_op\""), std::string::npos);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
}

TEST(OrbtopSimClusterTest, PushCollectorStreamsShardStoreColumns) {
  sim::Cluster cluster;
  for (int i = 0; i < 4; ++i)
    cluster.add_host("node" + std::to_string(i), 100.0);
  RuntimeOptions options;
  options.checkpoint_shards = 2;
  options.checkpoint_replicas = 2;
  SimRuntime runtime(cluster, options);
  runtime.events().run_until(0.5);

  // Subscribe first: the shard primaries publish shard.state only while
  // somebody is listening.
  naming::NamingContextStub root = runtime.naming();
  obs::PushCollector collector(runtime.client_orb(), root);

  auto store = runtime.checkpoint_store();
  const corba::Blob state(256, std::byte{7});
  for (std::uint64_t v = 1; v <= 3; ++v) {
    for (int i = 0; i < 8; ++i)
      store->store("svc-" + std::to_string(i), v, state);
    runtime.events().run_until(runtime.events().now() + 0.1);
  }

  const obs::ClusterSnapshot snapshot = collector.snapshot();
  ASSERT_EQ(snapshot.shards.size(), 2u);  // one line per shard primary
  for (const obs::ShardLine& line : snapshot.shards) {
    EXPECT_EQ(line.role, "primary");
    EXPECT_FALSE(line.host.empty());
    EXPECT_GT(line.version, 0u);   // writes hit both shards
    EXPECT_EQ(line.followers, 1u);
    EXPECT_EQ(line.lag, 0u);  // forwards drained on the virtual clock
  }
  const std::string json = obs::render_json(snapshot);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(obs::render_table(snapshot).find("shards:"), std::string::npos);
}

TEST(OrbtopTcpClusterTest, PushCollectorStreamsOverRealSockets) {
  obs::EventChannel::global().reset();
  auto alpha = corba::ORB::init({.endpoint_name = "alpha2", .enable_tcp = true});
  auto [root_servant, root_ref] =
      naming::NamingContextServant::create_root(alpha);
  // install_telemetry binds the global channel in worker mode for a TCP
  // deployment; the push carrier is the normal GIOP-lite wire.
  obs::install_telemetry(alpha, *root_servant, {.host = "alpha2"});

  auto watcher =
      corba::ORB::init({.endpoint_name = "watcher3", .enable_tcp = true});
  naming::NamingContextStub root(
      watcher->string_to_object(alpha->object_to_string(root_ref)));
  {
    obs::PushCollector collector(watcher, root);
    EXPECT_EQ(collector.subscriptions(), 1u);
    EXPECT_EQ(collector.snapshot().transport, "push");

    obs::publish_event(obs::Topic::load_report, "alpha2", "alpha2",
                       {obs::num_field("index", 2.5),
                        obs::num_field("load_avg", 1.0),
                        obs::num_field("timestamp", 0.0)});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (collector.events_received() == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "no push event arrived over TCP";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const obs::ClusterSnapshot snapshot = collector.snapshot();
    ASSERT_EQ(snapshot.nodes.size(), 1u);
    EXPECT_DOUBLE_EQ(snapshot.nodes[0].health.load_index, 2.5);
  }
  obs::EventChannel::global().reset();
  watcher->shutdown();
  alpha->shutdown();
}

}  // namespace
}  // namespace rt
