// Concurrency tests for the flight recorder: many writers hammering one
// ring while a reader renders dumps.  Every slot field is an atomic and the
// per-slot sequence word pairs payloads with their event index, so this is
// data-race-free by construction — the `tsan` ctest label runs exactly this
// binary under a SANITIZE=thread build to prove it.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_channel.hpp"
#include "obs/metrics.hpp"

// A writer that outpaces the reader, made deterministic: while armed, every
// allocation on this thread records two events into `lap_target`.  events()
// allocates once for its result and once per decoded subject longer than the
// small-string buffer, so each slot it reads lets the "writer" advance two.
thread_local obs::FlightRecorder* lap_target = nullptr;

void* allocate(std::size_t size) {
  if (obs::FlightRecorder* recorder = lap_target) {
    lap_target = nullptr;  // record() does not allocate; guard regardless
    for (int i = 0; i < 2; ++i)
      recorder->record(obs::FlightEvent::rpc_start, "lapping-writer-event");
    lap_target = recorder;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace obs {
namespace {

TEST(FlightRecorderConcurrency, ParallelWritersLoseNothing) {
  FlightRecorder recorder(1 << 14);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&recorder, w] {
      const std::string subject = "writer-" + std::to_string(w);
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        recorder.record(FlightEvent::rpc_start, subject, i);
    });
  for (auto& t : writers) t.join();

  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
  const auto events = recorder.events();
  // Nothing wrapped (capacity exceeds the total), nothing torn (no writer
  // is active), so every event survives with a coherent payload.
  ASSERT_EQ(events.size(), kWriters * kPerWriter);
  std::vector<std::uint64_t> next(kWriters, 0);
  for (const auto& event : events) {
    ASSERT_EQ(event.subject.rfind("writer-", 0), 0u) << event.subject;
    const int w = event.subject[7] - '0';
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kWriters);
    // Per-writer payloads arrive in program order (indices are claimed
    // monotonically and events() walks them oldest-first).
    EXPECT_EQ(event.a, next[static_cast<std::size_t>(w)]++);
  }
}

TEST(FlightRecorderConcurrency, DumpingWhileWritersWrapStaysCoherent) {
  FlightRecorder recorder(64);  // small ring: constant wrap-around
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w)
    writers.emplace_back([&recorder, &stop, w] {
      const std::string subject = "wrap-" + std::to_string(w);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed))
        recorder.record(FlightEvent::dispatch_depth, subject, ++i);
    });

  for (int round = 0; round < 200; ++round) {
    const auto events = recorder.events();
    EXPECT_LE(events.size(), recorder.capacity());
    for (const auto& event : events) {
      // A torn slot is skipped, never surfaced: whatever we see must be a
      // fully published event.
      EXPECT_EQ(event.type, FlightEvent::dispatch_depth);
      EXPECT_EQ(event.subject.rfind("wrap-", 0), 0u);
      EXPECT_GT(event.a, 0u);
    }
    const std::string text = recorder.to_text();
    EXPECT_NE(text.find("flight-recorder: "), std::string::npos);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(FlightRecorderConcurrency, ReaderFindsEventsUnderAWriterThatOutpacesIt) {
  // The writer overwrites the ring oldest-first.  A reader walking the same
  // way meets only slots the writer has just torn and returns nothing; the
  // newest-first walk reads the newest events before the writer gets there.
  FlightRecorder recorder(64);
  for (std::size_t i = 0; i < recorder.capacity(); ++i)
    recorder.record(FlightEvent::rpc_start, "lapping-writer-event");
  lap_target = &recorder;
  const auto events = recorder.events();
  lap_target = nullptr;

  ASSERT_FALSE(events.empty());
  EXPECT_LT(events.back().index, recorder.capacity());  // the pre-race ring
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].index, events[i].index);  // still oldest-first
}

TEST(FlightRecorderConcurrency, EventsRacingAWriterAreNeverEmpty) {
  // Unless the writer laps the whole ring during the call (it advances by
  // capacity - 1 or more), at least the newest complete slot at call start
  // survives the read.
  FlightRecorder recorder(64);
  for (std::size_t i = 0; i < recorder.capacity(); ++i)
    recorder.record(FlightEvent::rpc_start, "op");
  std::atomic<bool> stop{false};
  std::thread writer([&recorder, &stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      recorder.record(FlightEvent::rpc_start, "op", ++i);
  });
  for (int call = 0; call < 200; ++call) {
    const std::uint64_t before = recorder.recorded();
    const auto events = recorder.events();
    const std::uint64_t advanced = recorder.recorded() - before;
    if (advanced + 1 < recorder.capacity()) {
      EXPECT_FALSE(events.empty()) << "writer advanced " << advanced;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(FlightRecorderConcurrency, AutoDumpRacesWithWriters) {
  // Every racing dump is counted and publishes the ring, and whatever it
  // publishes is coherent.  A writer that laps the ring mid-dump can tear
  // every slot, so a racing dump may deliver nothing; a final quiet dump
  // must deliver the whole ring.
  EventChannel::global().reset();
  EventChannel::global().bind({});
  std::mutex mu;
  std::size_t quiet = 0;
  EventChannel::global().subscribe(
      {.topics = {Topic::flight_event}, .queue_limit = 1 << 14},
      [&](std::span<const Event> batch) {
        std::lock_guard lock(mu);
        for (const Event& event : batch) {
          EXPECT_EQ(event.key, "rpc_start");
          for (const EventField& field : event.fields) {
            if (field.name == "subject") {
              EXPECT_EQ(field.str, "op");
            }
            if (field.name == "reason" && field.str == "quiet") ++quiet;
          }
        }
      });
  Counter& published =
      MetricsRegistry::global().counter("obs.flight.event_dumps_total");
  const std::uint64_t published_before = published.value();

  FlightRecorder recorder(64);
  for (std::size_t i = 0; i < recorder.capacity(); ++i)
    recorder.record(FlightEvent::rpc_start, "op");  // the ring starts full
  std::atomic<bool> stop{false};
  std::thread writer([&recorder, &stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      recorder.record(FlightEvent::rpc_start, "op", ++i);
  });
  constexpr std::uint64_t kDumps = 100;
  for (std::uint64_t i = 0; i < kDumps; ++i) recorder.auto_dump("race round");
  stop.store(true);
  writer.join();
  recorder.auto_dump("quiet");
  EventChannel::global().flush();

  EXPECT_EQ(recorder.auto_dumps(), kDumps + 1);
  EXPECT_EQ(published.value() - published_before, kDumps + 1);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(quiet, recorder.capacity());
  }
  EventChannel::global().reset();
}

TEST(FlightRecorderConcurrency, LiveReportsRaceRpcWritersWithoutStaleDetail) {
  // Reporters publish host-bearing recovery events live while rpc writers
  // reuse the same small ring's slots and a reader decodes it: no rpc event
  // ever surfaces a detail, and every live event reaches the subscriber.
  EventChannel::global().reset();
  EventChannel::global().bind({});
  std::mutex mu;
  std::vector<std::string> live_details;
  EventChannel::global().subscribe(
      {.topics = {Topic::flight_event}, .queue_limit = 1 << 14},
      [&](std::span<const Event> batch) {
        std::lock_guard lock(mu);
        for (const Event& event : batch)
          for (const EventField& field : event.fields)
            if (field.name == "detail") live_details.push_back(field.str);
      });

  FlightRecorder recorder(32);
  constexpr std::uint64_t kReports = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&recorder, w] {
      const std::string host = "host-" + std::to_string(w);
      for (std::uint64_t i = 0; i < kReports; ++i)
        recorder.report(FlightEvent::recovery_step, "svc",
                        static_cast<std::uint64_t>(RecoveryStep::rebound), i,
                        host);
    });
    threads.emplace_back([&recorder, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed))
        recorder.record(FlightEvent::rpc_start, "op", ++i);
    });
  }
  std::thread reader([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& event : recorder.events()) {
        if (event.type == FlightEvent::rpc_start)
          EXPECT_EQ(event.detail, "");
        else
          EXPECT_EQ(event.detail.rfind("host-", 0), 0u) << event.detail;
      }
    }
  });
  threads[0].join();
  threads[2].join();
  stop.store(true);
  threads[1].join();
  threads[3].join();
  reader.join();
  EventChannel::global().flush();
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(live_details.size(), 2 * kReports);
    for (const std::string& detail : live_details)
      EXPECT_EQ(detail.rfind("host-", 0), 0u) << detail;
  }
  EventChannel::global().reset();
}

}  // namespace
}  // namespace obs
