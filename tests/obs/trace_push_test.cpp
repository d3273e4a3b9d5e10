// Trace export over real sockets: a TelemetryServant deployed with
// trace_sample_n installs a SpanExporter, client calls create spans, the
// spans ride the oneway push carrier through `_obs/<host>`, and a
// TraceWatcher on the other ORB assembles them back into call trees — the
// TCP half of the orbtrace pipeline (the sim half is
// tests/integration/trace_stream_test.cpp).  Runs under the tsan label:
// span recording on client and transport threads races the exporter's
// batching and the channel worker.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/event_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/orbtrace.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "orb/orb.hpp"

namespace obs {
namespace {

class TracePushTcpTest : public ::testing::Test {
 protected:
  void SetUp() override { EventChannel::global().reset(); }
  void TearDown() override {
    set_trace_sink(nullptr);
    EventChannel::global().reset();
  }
};

TEST_F(TracePushTcpTest, SpansCrossTheWireAndAssembleIntoCallTrees) {
  auto server =
      corba::ORB::init({.endpoint_name = "alpha", .enable_tcp = true});
  auto [root_servant, root_ref] =
      naming::NamingContextServant::create_root(server);
  // trace_sample_n=1: every trace exported, batched onto the channel the
  // telemetry installation binds in worker mode.
  obs::install_telemetry(server, *root_servant,
                         {.host = "alpha", .trace_sample_n = 1});
  ASSERT_TRUE(tracing_enabled());

  auto watcher_orb =
      corba::ORB::init({.endpoint_name = "watcher", .enable_tcp = true});
  naming::NamingContextStub root(
      watcher_orb->string_to_object(server->object_to_string(root_ref)));
  TraceWatcher watcher(watcher_orb, root);
  ASSERT_GE(watcher.subscriptions(), 1u);

  // Two-way calls through the telemetry servant itself: each one is a traced
  // rpc.client tree with a server-side servant.dispatch underneath.
  TelemetryStub telemetry(root.resolve(naming::Name::parse("_obs/alpha")));

  std::vector<AssembledTrace> collected;
  bool found = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!found) {
    // Keep driving traffic: partial export batches only flush once enough
    // spans accumulate, so the workload doubles as the flush pump.
    for (int i = 0; i < 50; ++i) (void)telemetry.health();
    for (AssembledTrace& trace : watcher.drain_all())
      collected.push_back(std::move(trace));
    for (const AssembledTrace& trace : collected) {
      if (trace.rootless || trace.root_span().record.name != "rpc.client")
        continue;
      for (const AssembledSpan& span : trace.spans) {
        if (span.record.name == "servant.dispatch") {
          EXPECT_EQ(span.host, "alpha");  // stamped by the exporting node
          found = true;
        }
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no assembled rpc.client/servant.dispatch trace arrived; "
        << "events_received=" << watcher.events_received()
        << " collected=" << collected.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(watcher.events_received(), 0u);

  // The report stack runs over wire-assembled traces too.
  const std::string report = render_trace_report(collected, 3);
  EXPECT_NE(report.find("orbtrace:"), std::string::npos);
  EXPECT_NE(report.find("rpc.client"), std::string::npos);
  const std::string json = traces_to_json(collected, 3);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);

  // Teardown order: consumer subscriptions, then the channel, then the ORBs
  // (no in-flight push may outlive the consumer's transport).
  EventChannel::global().reset();
  watcher_orb->shutdown();
  server->shutdown();
}

TEST_F(TracePushTcpTest, PostmortemJoinsEachFlightEventOnceAcrossDumps) {
  auto server =
      corba::ORB::init({.endpoint_name = "alpha", .enable_tcp = true});
  auto [root_servant, root_ref] =
      naming::NamingContextServant::create_root(server);
  obs::install_telemetry(server, *root_servant, {.host = "alpha"});
  auto watcher_orb =
      corba::ORB::init({.endpoint_name = "watcher", .enable_tcp = true});
  naming::NamingContextStub root(
      watcher_orb->string_to_object(server->object_to_string(root_ref)));
  TraceWatcher watcher(watcher_orb, root);

  // One traced recovery: a step published live as it happens, and an rpc
  // the ring holds.  Then two overlapping auto-dumps replay the whole ring,
  // each of them carrying both events again.
  constexpr std::uint64_t kTrace = 0x5eed;
  const TraceContext previous =
      exchange_current_trace(TraceContext{kTrace, kTrace, 0});
  flight_report(FlightEvent::recovery_step, "Table",
                static_cast<std::uint64_t>(RecoveryStep::recover));
  flight_event(FlightEvent::rpc_start, "get", 9);
  exchange_current_trace(previous);
  FlightRecorder::global().auto_dump("first");
  FlightRecorder::global().auto_dump("second");
  // Delivery is FIFO per subscriber: once this live sentinel has arrived,
  // so has everything published before it.
  exchange_current_trace(TraceContext{kTrace, kTrace, 0});
  flight_report(FlightEvent::checkpoint_drop, "sentinel", 1, 1);
  exchange_current_trace(previous);

  auto count = [](const std::vector<JoinedEvent>& joined,
                  const std::string& text) {
    std::size_t n = 0;
    for (const JoinedEvent& event : joined) n += event.text == text;
    return n;
  };
  const std::string sentinel = "checkpoint_drop sentinel a=1 b=1";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count(watcher.joined_events(kTrace), sentinel) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "events_received=" << watcher.events_received();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<JoinedEvent> joined = watcher.joined_events(kTrace);
  EXPECT_EQ(count(joined, "recovery_step Table a=recover b=0"), 1u);
  EXPECT_EQ(count(joined, "rpc_start get a=9 b=0"), 1u);
  EXPECT_EQ(joined.size(), 3u);

  EventChannel::global().reset();
  watcher_orb->shutdown();
  server->shutdown();
}

}  // namespace
}  // namespace obs
