#include "orb/dispatch_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"

namespace corba {

namespace {

struct PoolMetrics {
  obs::Counter& dispatched = obs::MetricsRegistry::global().counter(
      "orb.dispatch_pool.dispatched_total");
  obs::Counter& inlined = obs::MetricsRegistry::global().counter(
      "orb.dispatch_pool.inline_total");
  obs::Gauge& inflight =
      obs::MetricsRegistry::global().gauge("orb.dispatch_pool.inflight");
  obs::Histogram& queue_depth = obs::MetricsRegistry::global().histogram(
      "orb.dispatch_pool.queue_depth",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  /// Time a request sat queued before a worker picked it up — the "where
  /// does latency come from" attribution for a saturated pool.
  obs::Histogram& queue_wait = obs::MetricsRegistry::global().histogram(
      "orb.dispatch_pool.queue_wait_s");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// Wall (steady) clock, deliberately not obs::now(): pool workers run real
// threads even while a simulator's virtual clock is installed in the same
// process, and a virtual timestamp here would render nonsense waits.
double pool_monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DispatchPool::DispatchPool(Options options, Dispatch dispatch)
    : options_(options), dispatch_(std::move(dispatch)) {
  if (options_.threads < 1) throw BAD_PARAM("dispatch pool requires >= 1 thread");
  if (options_.queue_limit < 1)
    throw BAD_PARAM("dispatch pool requires a positive queue limit");
  if (!dispatch_) throw BAD_PARAM("dispatch pool requires a dispatch function");
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

DispatchPool::~DispatchPool() { stop(); }

bool DispatchPool::admit_locked(const RequestMessage& request) {
  if (stopping_)
    throw BAD_INV_ORDER("dispatch pool is stopped", minor_code::unspecified,
                        CompletionStatus::completed_no);
  if (in_pool_ >= options_.queue_limit) {
    space_wanted_ = true;  // arm the edge: ring once when capacity frees up
    return false;
  }
  ++in_pool_;
  pool_metrics().queue_depth.record(static_cast<double>(in_pool_));
  obs::flight_event(obs::FlightEvent::dispatch_depth, request.operation,
                    in_pool_);
  return true;
}

void DispatchPool::enqueue_locked(RequestMessage& request, Completion& done) {
  Job job{std::move(request), std::move(done), pool_monotonic_seconds()};
  if (obs::tracing_enabled()) {
    // Queue wait is attributable only for traced requests that carried a
    // wire context; the worker records a `dispatch.queue` span from these.
    if (const auto wire = extract_trace_context(job.request)) {
      job.trace = *wire;
      job.trace_enqueued_at = obs::now();
    }
  }
  auto [it, inserted] = keys_.try_emplace(job.request.object_key);
  it->second.waiting.push_back(std::move(job));
  // A key becomes runnable when its first job arrives; while a job is
  // executing the key stays out of ready_ (finish_locked re-queues it).
  if (inserted) {
    ready_.push_back(it->first);
    work_cv_.notify_one();
  }
}

bool DispatchPool::try_submit(RequestMessage& request, Completion& done) {
  std::lock_guard lock(mu_);
  if (!admit_locked(request)) return false;
  enqueue_locked(request, done);
  return true;
}

bool DispatchPool::try_run_inline(RequestMessage& request, Completion& done) {
  std::unique_lock lock(mu_);
  if (!admit_locked(request)) return false;
  // An idle key is claimed (present, nothing waiting = executing), so a
  // request for it arriving meanwhile queues behind this run.
  if (!keys_.try_emplace(request.object_key).second) {
    enqueue_locked(request, done);  // busy key: queue, as try_submit does
    return true;
  }
  pool_metrics().inflight.add(1);
  pool_metrics().queue_wait.record(0.0);
  pool_metrics().inlined.inc();
  lock.unlock();
  run(request, done);
  lock.lock();
  finish_locked(request.object_key);
  return true;
}

void DispatchPool::set_space_callback(std::function<void()> callback) {
  std::lock_guard lock(mu_);
  space_callback_ = std::move(callback);
}

void DispatchPool::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
    // A reactor loop parked on the space callback must wake to observe the
    // stop (its retried try_submit then throws and the connection unwinds).
    if (space_wanted_ && space_callback_) {
      space_wanted_ = false;
      space_callback_();
    }
  }
  // Serialized so concurrent stop() calls never race a join.
  std::lock_guard join_lock(join_mu_);
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
}

std::size_t DispatchPool::depth() const {
  std::lock_guard lock(mu_);
  return in_pool_;
}

std::uint64_t DispatchPool::dispatched() const {
  std::lock_guard lock(mu_);
  return dispatched_;
}

void DispatchPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return !ready_.empty() || (stopping_ && in_pool_ == 0);
    });
    if (ready_.empty()) return;  // stopping and fully drained
    ObjectKey key = std::move(ready_.front());
    ready_.pop_front();
    auto it = keys_.find(key);
    Job job = std::move(it->second.waiting.front());
    it->second.waiting.pop_front();

    pool_metrics().inflight.add(1);
    pool_metrics().queue_wait.record(
        std::max(0.0, pool_monotonic_seconds() - job.enqueued_at));
    if (job.trace.valid() && obs::tracing_enabled()) {
      // The queue-wait interval as a span, parented on the wire context —
      // it lands beside the request's servant.dispatch span in the
      // assembled tree and feeds the analyzer's queue.wait category.
      obs::record_span("dispatch.queue", job.request.operation,
                       job.trace_enqueued_at, obs::now(), job.trace);
    }
    lock.unlock();
    run(job.request, job.done);
    lock.lock();
    finish_locked(key);
  }
}

void DispatchPool::run(const RequestMessage& request, Completion& done) {
  ReplyMessage reply = dispatch_(request);
  if (request.response_expected && done) {
    try {
      done(std::move(reply));
    } catch (...) {
      // Completion failures (connection torn down mid-dispatch) are the
      // client's COMM_FAILURE to observe, not the pool's problem.
    }
  }
}

void DispatchPool::finish_locked(const ObjectKey& key) {
  pool_metrics().inflight.add(-1);
  pool_metrics().dispatched.inc();
  ++dispatched_;
  --in_pool_;

  auto it = keys_.find(key);
  if (it->second.waiting.empty()) {
    keys_.erase(it);
  } else {
    // FIFO per key: the next job for this key becomes runnable only now
    // that its predecessor finished.
    ready_.push_back(key);
    work_cv_.notify_one();
  }
  if (space_wanted_ && in_pool_ < options_.queue_limit) {
    // Cheap by contract (an eventfd write), so holding mu_ here is fine
    // and keeps the arm/ring sequence race-free.
    space_wanted_ = false;
    if (space_callback_) space_callback_();
  }
  if (stopping_ && in_pool_ == 0) work_cv_.notify_all();
}

}  // namespace corba
