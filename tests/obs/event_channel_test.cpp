// Unit and property tests for the push telemetry channel: topic vocabulary,
// bounded queues under both overflow policies (checked against a reference
// model on seeded random workloads), consumer-identity dedupe, failure
// auto-unsubscribe and the 1000-subscriber fan-out bound with a slow
// consumer.  Everything runs on a hand-rolled deterministic executor (the
// same shape SimRuntime wires: delayed callbacks on a virtual clock).
#include "obs/event_channel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace obs {
namespace {

/// Virtual-clock executor: schedule(delay) queues a callback at now + delay;
/// run_until() executes in timestamp order, advancing `now`.  The obs clock
/// is pointed at `now` for the fixture's lifetime so delivery_interval math
/// sees the same time base.
class ManualExecutor {
 public:
  EventChannel::Defer defer() {
    return [this](double delay, std::function<void()> fn) {
      pending_.emplace(now_ + delay, std::move(fn));
    };
  }

  void run_until(double t) {
    while (!pending_.empty() && pending_.begin()->first <= t) {
      auto it = pending_.begin();
      now_ = std::max(now_, it->first);
      std::function<void()> fn = std::move(it->second);
      pending_.erase(it);
      fn();
    }
    now_ = std::max(now_, t);
  }

  void run_all() {
    while (!pending_.empty()) run_until(pending_.begin()->first);
  }

  double now() const { return now_; }
  void advance(double dt) { now_ += dt; }

 private:
  double now_ = 0.0;
  std::multimap<double, std::function<void()>> pending_;
};

class EventChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_token_ = set_clock([this] { return exec_.now(); });
  }
  void TearDown() override { clear_clock(clock_token_); }

  ManualExecutor exec_;
  std::uint64_t clock_token_ = 0;
};

Event make_event(Topic topic, std::string key, std::uint64_t n) {
  Event event;
  event.topic = topic;
  event.key = std::move(key);
  event.fields.push_back(int_field("n", n));
  return event;
}

std::uint64_t payload(const Event& event) {
  for (const auto& field : event.fields)
    if (field.name == "n") return field.u64;
  return ~0ull;
}

TEST(TopicVocabulary, NamesRoundTripAndDefaultsMatchDesign) {
  const Topic all[] = {Topic::metrics_delta, Topic::flight_event,
                       Topic::load_report,   Topic::session_state,
                       Topic::shard_state,   Topic::trace_span};
  static_assert(std::size(all) == kTopicCount);
  for (Topic topic : all) {
    const auto parsed = parse_topic(to_string(topic));
    ASSERT_TRUE(parsed.has_value()) << to_string(topic);
    EXPECT_EQ(*parsed, topic);
  }
  EXPECT_EQ(to_string(Topic::metrics_delta), "metrics.delta");
  EXPECT_FALSE(parse_topic("metrics_delta").has_value());
  EXPECT_FALSE(parse_topic("").has_value());

  // State topics coalesce (a newer absolute value supersedes an unsent
  // older one); log topics drop oldest.
  EXPECT_EQ(default_policy(Topic::metrics_delta),
            OverflowPolicy::coalesce_by_key);
  EXPECT_EQ(default_policy(Topic::load_report),
            OverflowPolicy::coalesce_by_key);
  EXPECT_EQ(default_policy(Topic::flight_event), OverflowPolicy::drop_oldest);
  EXPECT_EQ(default_policy(Topic::session_state), OverflowPolicy::drop_oldest);
  EXPECT_EQ(default_policy(Topic::shard_state),
            OverflowPolicy::coalesce_by_key);
}

TEST(TopicVocabulary, ToLineIsTheDeterministicStreamFormat) {
  Event event;
  event.topic = Topic::load_report;
  event.host = "node1";
  event.key = "node1";
  event.t = 1.5;
  event.seq = 42;
  event.fields.push_back(num_field("index", 2.25));
  event.fields.push_back(int_field("count", 7));
  event.fields.push_back(str_field("state", "resumed"));
  EXPECT_EQ(event.to_line(),
            "[1.500000000] #42 load.report host=node1 key=node1 "
            "index=2.25 count=7 state=resumed");
}

TEST_F(EventChannelTest, SubscribeRequiresBindAndPublishIsFreeWhenIdle) {
  EventChannel channel;
  EXPECT_FALSE(channel.bound());
  EXPECT_THROW(channel.subscribe({}, [](std::span<const Event>) {}),
               std::logic_error);

  channel.bind({.defer = exec_.defer()});
  // Published before any subscriber: not accounted, sequence not consumed.
  channel.publish(Topic::flight_event, "h", "k", {});

  std::vector<Event> received;
  channel.subscribe({}, [&](std::span<const Event> batch) {
    received.insert(received.end(), batch.begin(), batch.end());
  });
  channel.publish(Topic::flight_event, "h", "k", {int_field("n", 1)});
  exec_.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].seq, 1u);  // the idle publish consumed nothing
}

TEST_F(EventChannelTest, TopicFilterAndDeliveryOrder) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  std::vector<Event> flight_only, everything;
  channel.subscribe({.topics = {Topic::flight_event}},
                    [&](std::span<const Event> batch) {
                      flight_only.insert(flight_only.end(), batch.begin(),
                                         batch.end());
                    });
  channel.subscribe({}, [&](std::span<const Event> batch) {
    everything.insert(everything.end(), batch.begin(), batch.end());
  });

  channel.publish(Topic::metrics_delta, "", "m", {int_field("n", 0)});
  channel.publish(Topic::flight_event, "", "f", {int_field("n", 1)});
  channel.publish(Topic::session_state, "", "s", {int_field("n", 2)});
  exec_.run_all();

  ASSERT_EQ(flight_only.size(), 1u);
  EXPECT_EQ(flight_only[0].topic, Topic::flight_event);
  ASSERT_EQ(everything.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(everything[i].seq, i + 1);
    EXPECT_EQ(payload(everything[i]), i);
  }
}

TEST_F(EventChannelTest, DropOldestKeepsTheNewestEvents) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  std::vector<Event> received;
  channel.subscribe(
      {.queue_limit = 4, .policy = OverflowPolicy::drop_oldest,
       // Hold delivery back so the burst overflows before the drain runs.
       .delivery_interval = 10.0},
      [&](std::span<const Event> batch) {
        received.insert(received.end(), batch.begin(), batch.end());
      });
  for (std::uint64_t n = 0; n < 10; ++n)
    channel.publish(Topic::flight_event, "", "k", {int_field("n", n)});

  auto stats = channel.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].depth, 4u);
  EXPECT_EQ(stats[0].enqueued, 10u);
  EXPECT_EQ(stats[0].dropped, 6u);

  exec_.run_all();
  ASSERT_EQ(received.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(payload(received[i]), 6 + i);
}

TEST_F(EventChannelTest, CoalesceReplacesSameKeyAndFallsBackToDrop) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  std::vector<Event> received;
  channel.subscribe({.queue_limit = 2,
                     .policy = OverflowPolicy::coalesce_by_key,
                     .delivery_interval = 10.0},
                    [&](std::span<const Event> batch) {
                      received.insert(received.end(), batch.begin(),
                                      batch.end());
                    });
  channel.publish(Topic::metrics_delta, "", "a", {int_field("n", 1)});
  channel.publish(Topic::metrics_delta, "", "b", {int_field("n", 2)});
  // Queue full.  Same key: replaced in place (queue position kept) ...
  channel.publish(Topic::metrics_delta, "", "a", {int_field("n", 3)});
  // ... unseen key: falls back to dropping the oldest ("a").
  channel.publish(Topic::metrics_delta, "", "c", {int_field("n", 4)});

  auto stats = channel.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].coalesced, 1u);
  EXPECT_EQ(stats[0].dropped, 1u);

  exec_.run_all();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].key, "b");
  EXPECT_EQ(payload(received[0]), 2u);
  EXPECT_EQ(received[1].key, "c");
  EXPECT_EQ(payload(received[1]), 4u);
}

// --- property test: channel vs reference model -------------------------------
// Random interleavings of publishes (small key alphabet) and drains must
// leave the channel's delivered stream identical to a trivially-correct
// bounded-queue model with the same policy.

struct ModelQueue {
  std::size_t limit = 4;
  OverflowPolicy policy = OverflowPolicy::drop_oldest;
  std::deque<Event> queue{};
  std::vector<Event> delivered{};
  std::uint64_t dropped = 0, coalesced = 0;

  void push(const Event& event) {
    if (queue.size() >= limit) {
      if (policy == OverflowPolicy::coalesce_by_key) {
        for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
          if (it->topic == event.topic && it->key == event.key) {
            *it = event;
            ++coalesced;
            return;
          }
        }
      }
      queue.pop_front();
      ++dropped;
    }
    queue.push_back(event);
  }

  void drain() {
    delivered.insert(delivered.end(), queue.begin(), queue.end());
    queue.clear();
  }
};

TEST_F(EventChannelTest, RandomWorkloadMatchesReferenceModel) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::drop_oldest, OverflowPolicy::coalesce_by_key}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      ManualExecutor exec;
      const std::uint64_t token = set_clock([&exec] { return exec.now(); });
      EventChannel channel;
      channel.bind({.defer = exec.defer()});

      ModelQueue model{.limit = 4, .policy = policy};
      std::vector<Event> received;
      channel.subscribe({.queue_limit = 4,
                         .policy = policy,
                         // Drains happen only when the test says so: park the
                         // next delivery far in the future and advance past it
                         // to drain.
                         .delivery_interval = 1e6},
                        [&](std::span<const Event> batch) {
                          received.insert(received.end(), batch.begin(),
                                          batch.end());
                        });
      // The very first drain is due immediately; flush it so the interval
      // gate is armed before the workload starts.
      exec.run_all();
      model.drain();
      received.clear();
      model.delivered.clear();

      std::mt19937_64 rng(seed);
      std::uint64_t n = 0;
      for (int op = 0; op < 400; ++op) {
        if (rng() % 5 != 0) {
          Event event =
              make_event(Topic::metrics_delta, "k" + std::to_string(rng() % 4),
                         ++n);
          channel.publish(event.topic, "", event.key, event.fields);
          model.push(event);
        } else {
          exec.advance(2e6);  // past the interval gate: pending drain fires
          exec.run_all();
          model.drain();
        }
      }
      exec.advance(2e6);
      exec.run_all();
      model.drain();

      ASSERT_EQ(received.size(), model.delivered.size())
          << "policy=" << static_cast<int>(policy) << " seed=" << seed;
      for (std::size_t i = 0; i < received.size(); ++i) {
        EXPECT_EQ(received[i].key, model.delivered[i].key) << i;
        EXPECT_EQ(payload(received[i]), payload(model.delivered[i])) << i;
      }
      const auto stats = channel.stats();
      ASSERT_EQ(stats.size(), 1u);
      EXPECT_EQ(stats[0].dropped, model.dropped);
      EXPECT_EQ(stats[0].coalesced, model.coalesced);
      EXPECT_EQ(stats[0].delivered, received.size());
      clear_clock(token);
    }
  }
}

TEST_F(EventChannelTest, ConsumerIdDeduplicatesSubscriptions) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  const auto a = channel.subscribe({.consumer_id = "IOR:watcher"},
                                   [](std::span<const Event>) {});
  const auto b = channel.subscribe({.consumer_id = "IOR:watcher"},
                                   [](std::span<const Event>) {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(channel.subscriber_count(), 1u);
  // Distinct (or absent) identities are distinct subscriptions.
  const auto c = channel.subscribe({}, [](std::span<const Event>) {});
  EXPECT_NE(a, c);
  EXPECT_EQ(channel.subscriber_count(), 2u);
  EXPECT_TRUE(channel.unsubscribe(a));
  EXPECT_FALSE(channel.unsubscribe(a));
  EXPECT_EQ(channel.subscriber_count(), 1u);
}

TEST_F(EventChannelTest, ThreeConsecutiveFailuresUnsubscribe) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  int invocations = 0;
  channel.subscribe({}, [&](std::span<const Event>) {
    ++invocations;
    throw std::runtime_error("consumer is gone");
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(channel.subscriber_count(), 1u) << i;
    channel.publish(Topic::flight_event, "", "k", {});
    exec_.run_all();
  }
  EXPECT_EQ(invocations, 3);
  EXPECT_EQ(channel.subscriber_count(), 0u);  // torn down, queue released
  // Further publishes are the idle fast path again.
  channel.publish(Topic::flight_event, "", "k", {});
  exec_.run_all();
  EXPECT_EQ(invocations, 3);
}

TEST_F(EventChannelTest, ThousandSubscriberFanOutStaysBoundedWithOneSlow) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer(), .max_batch = 8});

  constexpr int kFast = 1000;
  std::vector<std::uint64_t> counts(kFast, 0);
  for (int i = 0; i < kFast; ++i) {
    channel.subscribe({.queue_limit = 256},
                      [&counts, i](std::span<const Event> batch) {
                        counts[static_cast<std::size_t>(i)] += batch.size();
                      });
  }
  // One consumer that takes a batch only every 1000 virtual seconds.
  std::uint64_t slow_count = 0;
  const auto slow_id = channel.subscribe(
      {.queue_limit = 8, .delivery_interval = 1000.0},
      [&](std::span<const Event> batch) { slow_count += batch.size(); });

  constexpr std::uint64_t kEvents = 100;
  for (std::uint64_t n = 0; n < kEvents; ++n)
    channel.publish(Topic::flight_event, "", "k" + std::to_string(n % 7),
                    {int_field("n", n)});
  exec_.run_until(exec_.now());  // due drains only; the slow one is parked

  for (int i = 0; i < kFast; ++i) EXPECT_EQ(counts[i], kEvents) << i;
  EXPECT_LE(slow_count, 8u);  // at most the first immediate batch
  bool found = false;
  for (const auto& stat : channel.stats()) {
    if (stat.id != slow_id) continue;
    found = true;
    // The slow consumer cost its own bound, nothing more: queue within
    // limit, the rest accounted as dropped.
    EXPECT_LE(stat.depth, 8u);
    EXPECT_EQ(stat.enqueued, kEvents);
    EXPECT_EQ(stat.dropped + stat.delivered + stat.depth, kEvents);
    EXPECT_GT(stat.dropped, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(EventChannelTest, ResetRestartsSequenceNumbers) {
  EventChannel channel;
  channel.bind({.defer = exec_.defer()});
  std::vector<std::uint64_t> seqs;
  auto subscribe = [&] {
    channel.subscribe({}, [&](std::span<const Event> batch) {
      for (const auto& event : batch) seqs.push_back(event.seq);
    });
  };
  subscribe();
  channel.publish(Topic::flight_event, "", "k", {});
  channel.publish(Topic::flight_event, "", "k", {});
  exec_.run_all();

  channel.reset();
  EXPECT_FALSE(channel.bound());
  channel.bind({.defer = exec_.defer()});
  subscribe();
  channel.publish(Topic::flight_event, "", "k", {});
  exec_.run_all();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 1}));
}

}  // namespace
}  // namespace obs
