// Server-side dispatch thread pool.
//
// Decouples socket reads from servant execution: the server's receive side
// (reactor.hpp) enqueues decoded requests and N workers dispatch them, so one
// slow method no longer blocks every other request behind it (head-of-line
// blocking) — only requests for the *same* object wait on each other.
//
// Ordering contract: requests are executed FIFO **per object key**, one at a
// time per key, preserving the single-threaded servant semantics the rest of
// the runtime was written against while letting distinct objects (and
// distinct connections) proceed in parallel.  Across keys the pool is FIFO
// too — keys become runnable in arrival order — but completion order is
// unconstrained, which is why replies carry request ids (the client transport
// demuxes them; see tcp_transport.hpp).
//
// try_run_inline() executes a request for an idle key on the caller's
// thread (the reactor's path for Servant::non_blocking() servants); a busy
// key still queues, so per-key FIFO holds whichever entry point was taken.
//
// The queue is bounded: try_submit() bounces when `queue_limit` requests are
// in the pool (queued + executing).  The reactor then stops reading the
// submitting connection — TCP flow control pushes back to the sender, and an
// overloaded server degrades into backpressure instead of unbounded memory
// growth.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "orb/message.hpp"

namespace corba {

class DispatchPool {
 public:
  struct Options {
    /// Worker thread count (>= 1).
    std::size_t threads = 4;
    /// Maximum requests in the pool (queued + executing) before try_submit()
    /// bounces.
    std::size_t queue_limit = 1024;
  };

  /// Executes one request; must be callable from any thread and must not
  /// throw (ObjectAdapter::dispatch is noexcept).
  using Dispatch = std::function<ReplyMessage(const RequestMessage&)>;

  /// Invoked with the reply on the executing thread; exceptions are
  /// swallowed (a completion writing to a dead connection is normal during
  /// teardown).
  using Completion = std::function<void(ReplyMessage)>;

  DispatchPool(Options options, Dispatch dispatch);
  ~DispatchPool();

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  /// Enqueues a request without ever parking the caller (the reactor's I/O
  /// loops).  `done` may be empty (oneway).  Returns false — leaving
  /// `request`/`done` untouched — when the pool is at queue_limit, and arms
  /// the space callback so the caller is poked once capacity frees up.
  /// Throws BAD_INV_ORDER after stop().
  bool try_submit(RequestMessage& request, Completion& done);

  /// try_submit, except that a request whose object key is idle (nothing
  /// executing or queued for it) executes on the calling thread before this
  /// returns, holding the key so later requests for it queue behind.  It
  /// counts as dispatched, with a queue wait of zero.
  bool try_run_inline(RequestMessage& request, Completion& done);

  /// Installs the capacity notification used by try_submit: invoked (at
  /// most once per failed-try_submit episode) when the pool drops back
  /// below queue_limit, and on stop().  The callback runs with the pool
  /// lock held on a worker thread, so it must be cheap and lock-free — an
  /// eventfd write, not real work.  Set before the first try_submit.
  void set_space_callback(std::function<void()> callback);

  /// Drains every queued request, then joins the workers.  Idempotent.
  void stop();

  std::size_t threads() const noexcept { return options_.threads; }

  // --- telemetry -----------------------------------------------------------
  /// Requests currently in the pool (queued + executing).
  std::size_t depth() const;
  /// Requests executed so far (pooled and inline).
  std::uint64_t dispatched() const;

 private:
  struct Job {
    RequestMessage request;
    Completion done;
    double enqueued_at = 0.0;  ///< steady-clock seconds; queue-wait metric
    /// Trace seam (captured only while tracing is enabled): the request's
    /// wire trace context and the obs-clock enqueue time, so the worker can
    /// record a `dispatch.queue` span — the queue-wait attribution category
    /// of the critical-path analyzer.  Deliberately not derived from
    /// enqueued_at: that is steady-clock while spans run on obs::now().
    obs::TraceContext trace{};
    double trace_enqueued_at = 0.0;
  };
  /// Per-object-key FIFO.  Present in keys_ iff it has waiting jobs or a
  /// job for it is executing (on a worker or inline).
  struct KeyQueue {
    std::deque<Job> waiting;
  };

  /// The shared halves of try_submit/try_run_inline and worker_loop.
  bool admit_locked(const RequestMessage& request);
  void enqueue_locked(RequestMessage& request, Completion& done);
  void run(const RequestMessage& request, Completion& done);
  void finish_locked(const ObjectKey& key);
  void worker_loop();

  Options options_;
  Dispatch dispatch_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for runnable keys
  std::unordered_map<ObjectKey, KeyQueue, ObjectKeyHash> keys_;
  /// Keys with a runnable (not currently executing) head job, FIFO.
  std::deque<ObjectKey> ready_;
  std::size_t in_pool_ = 0;  ///< queued + executing
  std::uint64_t dispatched_ = 0;
  bool stopping_ = false;
  /// True after a try_submit bounced off queue_limit; cleared when the
  /// space callback fires (edge-triggered, so an idle pool never rings it).
  bool space_wanted_ = false;
  std::function<void()> space_callback_;
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace corba
