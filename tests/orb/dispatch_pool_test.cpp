// DispatchPool unit tests: FIFO-per-key ordering, cross-key parallelism,
// bounded-queue backpressure (try_submit + space callback), drain-on-stop
// semantics, and try_run_inline (caller-thread execution of idle keys).
#include "orb/dispatch_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;

ObjectKey key_of(std::string_view name) {
  return ObjectKey::from_string(name);
}

RequestMessage request_for(std::string_view key, std::uint64_t id,
                           bool response_expected = true) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = key_of(key);
  req.operation = "op";
  req.response_expected = response_expected;
  return req;
}

// Submits through the reactor's entry point, below the queue limit.
void submit(DispatchPool& pool, RequestMessage request,
            DispatchPool::Completion done) {
  ASSERT_TRUE(pool.try_submit(request, done));
}

TEST(DispatchPoolTest, ExecutesAndCompletes) {
  DispatchPool pool({.threads = 2}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value(std::int32_t(7)));
  });
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ReplyMessage got;
  submit(pool, request_for("a", 1), [&](ReplyMessage reply) {
    std::lock_guard lock(mu);
    got = std::move(reply);
    done = true;
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return done; }));
  EXPECT_EQ(got.request_id, 1u);
  EXPECT_EQ(got.result_or_throw().as_i32(), 7);
  pool.stop();
  EXPECT_EQ(pool.dispatched(), 1u);
}

TEST(DispatchPoolTest, FifoPerObjectKey) {
  // Many workers, one key: execution must still be serial and in order.
  std::mutex mu;
  std::vector<std::uint64_t> order;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  DispatchPool pool({.threads = 8}, [&](const RequestMessage& req) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected &&
           !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(1ms);
    {
      std::lock_guard lock(mu);
      order.push_back(req.request_id);
    }
    concurrent.fetch_sub(1);
    return ReplyMessage::make_result(req.request_id, Value());
  });
  constexpr std::uint64_t kCalls = 64;
  for (std::uint64_t i = 0; i < kCalls; ++i)
    submit(pool, request_for("serial", i), {});
  pool.stop();  // drains before joining
  ASSERT_EQ(order.size(), kCalls);
  for (std::uint64_t i = 0; i < kCalls; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(max_concurrent.load(), 1);
}

TEST(DispatchPoolTest, DistinctKeysRunInParallel) {
  // Two keys, two workers: a request blocked on key A must not stop key B.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> b_done{false};
  DispatchPool pool({.threads = 2}, [&](const RequestMessage& req) {
    if (req.object_key == key_of("a")) {
      std::unique_lock lock(mu);
      cv.wait_for(lock, 5s, [&] { return release; });
    } else {
      b_done.store(true);
    }
    return ReplyMessage::make_result(req.request_id, Value());
  });
  submit(pool, request_for("a", 1), {});
  submit(pool, request_for("b", 2), {});
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!b_done.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(b_done.load()) << "key b was stuck behind key a";
  {
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  pool.stop();
}

TEST(DispatchPoolTest, TrySubmitBouncesAtLimitAndRingsSpaceOnce) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto set_release = [&](bool value) {
    std::lock_guard lock(mu);
    release = value;
    cv.notify_all();
  };
  DispatchPool pool({.threads = 1, .queue_limit = 2},
                    [&](const RequestMessage& req) {
                      std::unique_lock lock(mu);
                      cv.wait_for(lock, 5s, [&] { return release; });
                      return ReplyMessage::make_result(req.request_id, Value());
                    });
  std::atomic<int> rings{0};
  pool.set_space_callback([&] { rings.fetch_add(1); });
  auto wait_until = [](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    return done();
  };
  submit(pool, request_for("k", 1), {});  // executing (blocked in dispatch)
  submit(pool, request_for("k", 2), {});  // queued; pool is now full

  // At the limit: bounced, with the caller's request and completion intact
  // so the reactor can park and retry them.
  RequestMessage third = request_for("k", 3);
  std::atomic<bool> completed{false};
  DispatchPool::Completion done = [&](ReplyMessage) { completed = true; };
  EXPECT_FALSE(pool.try_submit(third, done));
  EXPECT_FALSE(pool.try_submit(third, done));  // same armed episode
  EXPECT_EQ(third.request_id, 3u);
  EXPECT_EQ(third.object_key, key_of("k"));
  EXPECT_EQ(third.operation, "op");
  EXPECT_TRUE(done);
  EXPECT_EQ(pool.depth(), 2u);
  EXPECT_EQ(rings.load(), 0);

  // Capacity frees as both jobs finish: the edge rings exactly once.
  set_release(true);
  ASSERT_TRUE(wait_until([&] { return pool.dispatched() == 2; }));
  EXPECT_EQ(rings.load(), 1);

  // The retry the ring asks for is accepted and completes, without ringing.
  ASSERT_TRUE(pool.try_submit(third, done));
  ASSERT_TRUE(wait_until([&] { return pool.dispatched() == 3; }));
  EXPECT_TRUE(completed.load());
  EXPECT_EQ(rings.load(), 1);

  // Full again and armed: stop() rings while the jobs are still blocked, so
  // a reactor loop parked on the callback wakes to observe the stop.
  set_release(false);
  submit(pool, request_for("k", 4), {});
  submit(pool, request_for("k", 5), {});
  RequestMessage sixth = request_for("k", 6);
  DispatchPool::Completion none;
  EXPECT_FALSE(pool.try_submit(sixth, none));
  std::thread stopper([&] { pool.stop(); });
  EXPECT_TRUE(wait_until([&] { return rings.load() == 2; }));
  set_release(true);
  stopper.join();
  EXPECT_EQ(rings.load(), 2);
  EXPECT_EQ(pool.dispatched(), 5u);
}

TEST(DispatchPoolTest, StopDrainsQueuedWork) {
  std::atomic<int> executed{0};
  DispatchPool pool({.threads = 1}, [&](const RequestMessage& req) {
    std::this_thread::sleep_for(1ms);
    executed.fetch_add(1);
    return ReplyMessage::make_result(req.request_id, Value());
  });
  for (std::uint64_t i = 0; i < 20; ++i) submit(pool, request_for("k", i), {});
  pool.stop();
  EXPECT_EQ(executed.load(), 20);
  EXPECT_EQ(pool.depth(), 0u);
}

TEST(DispatchPoolTest, SubmitAfterStopThrows) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  pool.stop();
  RequestMessage request = request_for("k", 1);
  DispatchPool::Completion done;
  EXPECT_THROW(pool.try_submit(request, done), BAD_INV_ORDER);
}

TEST(DispatchPoolTest, CompletionExceptionIsSwallowed) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  submit(pool, request_for("k", 1),
              [](ReplyMessage) { throw std::runtime_error("dead connection"); });
  // The inline path must not unwind its caller (an I/O loop) either.
  RequestMessage inline_request = request_for("j", 2);
  DispatchPool::Completion throwing = [](ReplyMessage) {
    throw std::runtime_error("dead connection");
  };
  EXPECT_NO_THROW(EXPECT_TRUE(pool.try_run_inline(inline_request, throwing)));
  pool.stop();  // must not terminate / rethrow
  EXPECT_EQ(pool.dispatched(), 2u);
}

TEST(DispatchPoolTest, OnewayGetsNoCompletion) {
  std::atomic<bool> completed{false};
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  RequestMessage req = request_for("k", 1, /*response_expected=*/false);
  submit(pool, std::move(req), [&](ReplyMessage) { completed.store(true); });
  pool.stop();
  EXPECT_FALSE(completed.load());
  EXPECT_EQ(pool.dispatched(), 1u);
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Blocks dispatches of key "held" until release(); records who ran what.
class HeldKeyPool {
 public:
  HeldKeyPool()
      : pool_({.threads = 2}, [this](const RequestMessage& req) {
          const int now = concurrent_.fetch_add(1) + 1;
          if (now > 1) overlapped_ = true;
          if (req.operation == "hold") {
            std::unique_lock lock(mu_);
            held_ = true;
            cv_.notify_all();
            cv_.wait_for(lock, 5s, [&] { return released_; });
          }
          {
            std::lock_guard lock(mu_);
            order_.push_back(req.request_id);
            threads_.push_back(std::this_thread::get_id());
          }
          concurrent_.fetch_sub(1);
          return ReplyMessage::make_result(req.request_id, Value());
        }) {}

  DispatchPool& pool() { return pool_; }
  bool wait_held() {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, 5s, [&] { return held_; });
  }
  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<std::uint64_t> order() {
    std::lock_guard lock(mu_);
    return order_;
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard lock(mu_);
    return threads_;
  }
  bool overlapped() const { return overlapped_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
  std::vector<std::uint64_t> order_;
  std::vector<std::thread::id> threads_;
  std::atomic<int> concurrent_{0};
  std::atomic<bool> overlapped_{false};
  DispatchPool pool_;  // last: its workers call into the members above
};

TEST(DispatchPoolInlineTest, IdleKeyRunsOnTheCallersThread) {
  const std::uint64_t inline_before =
      counter_value("orb.dispatch_pool.inline_total");
  const std::uint64_t dispatched_before =
      counter_value("orb.dispatch_pool.dispatched_total");
  obs::Histogram& queue_wait =
      obs::MetricsRegistry::global().histogram("orb.dispatch_pool.queue_wait_s");
  const std::uint64_t waits_before = queue_wait.count();
  const double wait_sum_before = queue_wait.sum();
  std::thread::id ran_on;
  std::size_t depth_during = 0;
  DispatchPool* self = nullptr;
  DispatchPool pool({.threads = 1}, [&](const RequestMessage& req) {
    ran_on = std::this_thread::get_id();
    depth_during = self->depth();
    return ReplyMessage::make_result(req.request_id, Value(std::int32_t(5)));
  });
  self = &pool;
  RequestMessage request = request_for("idle", 9);
  std::optional<ReplyMessage> got;
  std::thread::id completed_on;
  DispatchPool::Completion done = [&](ReplyMessage reply) {
    completed_on = std::this_thread::get_id();
    got = std::move(reply);
  };
  ASSERT_TRUE(pool.try_run_inline(request, done));
  // Done before the call returned, on this thread, and held in depth()
  // while it ran.
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->result_or_throw().as_i32(), 5);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(completed_on, std::this_thread::get_id());
  EXPECT_EQ(depth_during, 1u);
  EXPECT_EQ(pool.depth(), 0u);
  EXPECT_EQ(pool.dispatched(), 1u);
  EXPECT_EQ(counter_value("orb.dispatch_pool.inline_total"), inline_before + 1);
  EXPECT_EQ(counter_value("orb.dispatch_pool.dispatched_total"),
            dispatched_before + 1);
  // One queue-wait sample per dispatch, and an inline run waited 0 s.
  EXPECT_EQ(queue_wait.count(), waits_before + 1);
  EXPECT_EQ(queue_wait.sum(), wait_sum_before);
  pool.stop();
}

TEST(DispatchPoolInlineTest, BusyKeyQueuesTheInlineAttemptInOrder) {
  HeldKeyPool held;
  RequestMessage first = request_for("k", 1);
  first.operation = "hold";
  submit(held.pool(), std::move(first), {});
  ASSERT_TRUE(held.wait_held());  // a worker is executing key k

  RequestMessage second = request_for("k", 2);
  DispatchPool::Completion none;
  ASSERT_TRUE(held.pool().try_run_inline(second, none));
  // Queued, not run: the caller got control back while k is still held.
  EXPECT_TRUE(held.order().empty());
  EXPECT_EQ(held.pool().depth(), 2u);

  held.release();
  held.pool().stop();
  EXPECT_EQ(held.order(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_FALSE(held.overlapped());
  for (const std::thread::id id : held.threads())
    EXPECT_NE(id, std::this_thread::get_id());
}

TEST(DispatchPoolInlineTest, InlineRunHoldsItsKeyAgainstPooledRequests) {
  HeldKeyPool held;
  std::thread io([&] {
    RequestMessage first = request_for("k", 1);
    first.operation = "hold";
    DispatchPool::Completion none;
    EXPECT_TRUE(held.pool().try_run_inline(first, none));
  });
  ASSERT_TRUE(held.wait_held());  // the inline run owns key k
  submit(held.pool(), request_for("k", 2), {});
  std::this_thread::sleep_for(20ms);  // a free worker must not take k
  EXPECT_TRUE(held.order().empty());
  held.release();
  io.join();
  held.pool().stop();
  EXPECT_EQ(held.order(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_FALSE(held.overlapped());
}

TEST(DispatchPoolInlineTest, AtQueueLimitBouncesAndArmsTheSpaceCallback) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  DispatchPool pool({.threads = 1, .queue_limit = 1},
                    [&](const RequestMessage& req) {
                      std::unique_lock lock(mu);
                      cv.wait_for(lock, 5s, [&] { return release; });
                      return ReplyMessage::make_result(req.request_id, Value());
                    });
  std::atomic<int> rings{0};
  pool.set_space_callback([&] { rings.fetch_add(1); });
  submit(pool, request_for("busy", 1), {});  // fills the pool

  // An idle key does not bypass the limit: bounced, request intact.
  RequestMessage request = request_for("idle", 2);
  DispatchPool::Completion done = [](ReplyMessage) {};
  EXPECT_FALSE(pool.try_run_inline(request, done));
  EXPECT_EQ(request.request_id, 2u);
  EXPECT_EQ(request.object_key, key_of("idle"));
  EXPECT_TRUE(done);
  EXPECT_EQ(rings.load(), 0);

  {
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rings.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(rings.load(), 1);
  EXPECT_TRUE(pool.try_run_inline(request, done));
  pool.stop();
  EXPECT_EQ(pool.dispatched(), 2u);
}

TEST(DispatchPoolInlineTest, RunInlineAfterStopThrows) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  pool.stop();
  RequestMessage request = request_for("k", 1);
  DispatchPool::Completion done;
  EXPECT_THROW(pool.try_run_inline(request, done), BAD_INV_ORDER);
}

}  // namespace
}  // namespace corba
