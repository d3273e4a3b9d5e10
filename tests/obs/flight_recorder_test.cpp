// Unit tests for the always-on flight recorder: recording, wrap-around,
// the enabled kill switch, deterministic renderings, auto-dump triggers and
// the live publication of recovery events.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/event_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs {
namespace {

TEST(FlightRecorder, RecordsAndDecodesEvents) {
  FlightRecorder recorder(8);
  recorder.record(FlightEvent::rpc_start, "solve", 7);
  recorder.record(FlightEvent::rpc_end, "solve", 7, 1);
  recorder.record(FlightEvent::checkpoint_ship, "worker-0", 3, 1024);

  const std::vector<FlightRecorder::Event> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FlightEvent::rpc_start);
  EXPECT_EQ(events[0].subject, "solve");
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 0u);
  EXPECT_EQ(events[0].index, 0u);
  EXPECT_EQ(events[1].type, FlightEvent::rpc_end);
  EXPECT_EQ(events[1].b, 1u);
  EXPECT_EQ(events[2].subject, "worker-0");
  EXPECT_EQ(events[2].a, 3u);
  EXPECT_EQ(events[2].b, 1024u);
  EXPECT_EQ(recorder.recorded(), 3u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
}

TEST(FlightRecorder, LongSubjectsAreTruncatedNotDropped) {
  FlightRecorder recorder(4);
  const std::string subject(40, 'x');
  recorder.record(FlightEvent::rpc_start, subject);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject,
            std::string(FlightRecorder::kSubjectCapacity, 'x'));
}

TEST(FlightRecorder, WrapAroundKeepsTheNewestEvents) {
  FlightRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    recorder.record(FlightEvent::rpc_start, "op", i);
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and exactly the last `capacity` events survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, 6u + i);
    EXPECT_EQ(events[i].a, 6u + i);
  }
  const std::string text = recorder.to_text();
  EXPECT_NE(
      text.find("flight-recorder: 10 events recorded, 4 retained (capacity 4)"),
      std::string::npos);
  EXPECT_NE(text.find("#9 rpc_start op a=9 b=0"), std::string::npos);
  EXPECT_EQ(text.find("#5 "), std::string::npos);  // overwritten
}

TEST(FlightRecorder, DisabledRecorderDropsEventsAndReenables) {
  FlightRecorder recorder(4);
  recorder.set_enabled(false);
  EXPECT_FALSE(recorder.enabled());
  recorder.record(FlightEvent::rpc_start, "dropped");
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.set_enabled(true);
  recorder.record(FlightEvent::rpc_start, "kept");
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.events()[0].subject, "kept");
}

TEST(FlightRecorder, ClearForgetsEverything) {
  FlightRecorder recorder(4);
  recorder.record(FlightEvent::conn_open, "a:1");
  recorder.record(FlightEvent::conn_close, "a:1", 2);
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.events().empty());
  // Recording restarts from index 0 (per-run determinism).
  recorder.record(FlightEvent::conn_open, "b:2");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].index, 0u);
}

TEST(FlightRecorder, DetailRoundTripsAndTruncates) {
  FlightRecorder recorder(8);
  recorder.report(FlightEvent::recovery_step, "Table",
                  static_cast<std::uint64_t>(RecoveryStep::rebound), 1,
                  "node1");
  recorder.report(FlightEvent::quarantine_trip, "Table", 0, 0,
                  std::string(40, 'h'));
  // Types without a detail ignore one passed anyway.
  recorder.report(FlightEvent::rpc_start, "op", 1, 0, "ignored");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "node1");
  EXPECT_EQ(events[1].detail,
            std::string(FlightRecorder::kSubjectCapacity, 'h'));
  EXPECT_EQ(events[2].detail, "");

  const std::string text = recorder.to_text();
  EXPECT_NE(text.find("#0 recovery_step Table a=rebound b=1 detail=node1\n"),
            std::string::npos);
  EXPECT_NE(text.find("#2 rpc_start op a=1 b=0\n"), std::string::npos);
  EXPECT_EQ(text.find("ignored"), std::string::npos);
}

TEST(FlightRecorder, ReusedSlotRendersNoStaleDetail) {
  FlightRecorder recorder(2);
  recorder.report(FlightEvent::fault_confirmed, "Table", 0, 0, "node7");
  recorder.record(FlightEvent::rpc_end, "op", 1);
  recorder.record(FlightEvent::rpc_start, "op", 2);  // reuses node7's slot
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, FlightEvent::rpc_start);
  EXPECT_EQ(events[1].detail, "");
  EXPECT_EQ(recorder.to_text().find("node7"), std::string::npos);
}

TEST(FlightRecorder, RecordStampsFromTheInstalledClock) {
  const std::uint64_t token = set_clock([] { return 42.125; });
  FlightRecorder recorder(4);
  recorder.record(FlightEvent::recovery_step, "Table",
                  static_cast<std::uint64_t>(RecoveryStep::recover));
  recorder.report(FlightEvent::checkpoint_drop, "key", 7, 3, {});
  clear_clock(token);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t, 42.125);
  EXPECT_DOUBLE_EQ(events[1].t, 42.125);
}

TEST(FlightRecorder, EveryRecoveryStepRendersByName) {
  FlightRecorder recorder(16);
  for (std::uint64_t step = 1; step <= 13; ++step)
    recorder.record(FlightEvent::recovery_step, "S", step);
  EXPECT_EQ(recorder.to_text().find("unknown"), std::string::npos);
  EXPECT_EQ(describe_flight_event("recovery_step", "S", 8, 46338766, ""),
            "recovery_step S a=backoff b=46338766");
  EXPECT_EQ(describe_flight_event("conn_close", "h:1", 8, 0, ""),
            "conn_close h:1 a=8 b=0");
}

// The live half: report() publishes on the global channel's flight.event
// topic, in worker mode (no simulator) so flush() is the delivery barrier.
class FlightReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventChannel::global().reset();
    EventChannel::global().bind({});
  }
  void TearDown() override {
    exchange_current_trace(TraceContext{});
    EventChannel::global().reset();
  }

  std::mutex mu_;
  std::vector<Event> received_;
};

std::string field_str(const Event& event, std::string_view name) {
  for (const EventField& field : event.fields)
    if (field.name == name) return field.str;
  return "<missing>";
}

std::uint64_t field_u64(const Event& event, std::string_view name) {
  for (const EventField& field : event.fields)
    if (field.name == name) return field.u64;
  return ~0ull;
}

TEST(FlightRecorder, AutoDumpCountsWithoutASinkAndDeliversWithOne) {
  EventChannel& channel = EventChannel::global();
  channel.reset();
  channel.bind({});
  FlightRecorder recorder(4);
  recorder.record(FlightEvent::rpc_start, "op");
  EXPECT_EQ(recorder.auto_dumps(), 0u);
  recorder.auto_dump("no subscriber");
  EXPECT_EQ(recorder.auto_dumps(), 1u);

  std::mutex mu;
  std::vector<Event> received;
  channel.subscribe({.topics = {Topic::flight_event}},
                    [&](std::span<const Event> batch) {
                      std::lock_guard lock(mu);
                      received.insert(received.end(), batch.begin(),
                                      batch.end());
                    });
  recorder.auto_dump("batched COMM_FAILURE on node0:1");
  channel.flush();
  EXPECT_EQ(recorder.auto_dumps(), 2u);
  {
    std::lock_guard lock(mu);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].key, "rpc_start");
    EXPECT_EQ(field_str(received[0], "reason"),
              "batched COMM_FAILURE on node0:1");
    EXPECT_EQ(field_str(received[0], "subject"), "op");
  }
  channel.reset();
}

TEST_F(FlightReportTest, LiveEventReachesSubscriberWithoutAutoDump) {
  EventChannel::global().subscribe(
      {.topics = {Topic::flight_event}}, [this](std::span<const Event> batch) {
        std::lock_guard lock(mu_);
        received_.insert(received_.end(), batch.begin(), batch.end());
      });
  FlightRecorder recorder(8);
  recorder.record(FlightEvent::rpc_start, "op", 1);  // not published
  exchange_current_trace(TraceContext{0xabc, 0xabc, 0});
  recorder.report(FlightEvent::recovery_step, "Table",
                  static_cast<std::uint64_t>(RecoveryStep::failure), 2,
                  "COMM_FAILURE");
  EventChannel::global().flush();

  EXPECT_EQ(recorder.auto_dumps(), 0u);
  std::lock_guard lock(mu_);
  ASSERT_EQ(received_.size(), 1u);
  const Event& event = received_[0];
  EXPECT_EQ(event.topic, Topic::flight_event);
  EXPECT_EQ(event.key, "recovery_step");
  EXPECT_EQ(field_str(event, "reason"), "live");
  EXPECT_EQ(field_str(event, "type"), "recovery_step");
  EXPECT_EQ(field_str(event, "subject"), "Table");
  EXPECT_EQ(field_str(event, "detail"), "COMM_FAILURE");
  EXPECT_EQ(field_u64(event, "a"),
            static_cast<std::uint64_t>(RecoveryStep::failure));
  EXPECT_EQ(field_u64(event, "b"), 2u);
  EXPECT_EQ(field_u64(event, "index"), 1u);
  EXPECT_EQ(field_u64(event, "trace"), 0xabcu);
  // The ring holds the same event: a later dump replays identical fields.
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].detail, "COMM_FAILURE");
  EXPECT_EQ(events[1].trace_id, 0xabcu);
}

TEST_F(FlightReportTest, NothingIsPublishedWithoutASubscriber) {
  Counter& published =
      MetricsRegistry::global().counter("obs.events.published_total");
  const std::uint64_t before = published.value();
  FlightRecorder recorder(8);
  recorder.report(FlightEvent::quarantine_release, "Table", 0, 0, "node2");
  EventChannel::global().flush();
  EXPECT_EQ(published.value(), before);
  ASSERT_EQ(recorder.events().size(), 1u);  // still recorded
  EXPECT_EQ(recorder.events()[0].detail, "node2");
}

TEST(FlightRecorder, GlobalRecorderIsOnByDefault) {
  EXPECT_TRUE(FlightRecorder::global().enabled());
  EXPECT_GE(FlightRecorder::global().capacity(),
            FlightRecorder::kDefaultCapacity);
}

}  // namespace
}  // namespace obs
