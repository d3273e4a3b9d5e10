// Epoll reactor: the server receive path that serves C10K connections on a
// fixed thread budget.
//
// A blocking receive loop per accepted connection would let thread count —
// not CPU — cap how many clients an endpoint can serve.  The reactor instead
// runs `io_threads` event loops: accepted sockets are non-blocking, each
// loop runs epoll_wait over its share of the connections (round-robin
// assignment at accept), frames are assembled incrementally into
// per-connection read buffers, and every complete request is handed to the
// object adapter's bounded DispatchPool (run inline on the I/O thread for
// Servant::non_blocking() servants).  Reply writes are non-blocking too:
// a write that would block parks its tail in the connection's pending-write
// queue, drained in FIFO order on EPOLLOUT — per-connection write ordering
// (which the session layer's reply-seq contract relies on) is preserved
// because completions enqueue under one mutex.
//
// Back-pressure: when the DispatchPool is at capacity, DispatchPool::
// try_submit bounces, the loop stops arming EPOLLIN for that connection and
// stashes the one already-decoded request.  The connection's socket stops
// being read, kernel flow control pushes back to the client, and server
// memory stays bounded without parking an I/O thread.  The pool's space
// callback rings a per-loop eventfd when capacity frees up; the loop then
// resubmits, resumes parsing, and re-arms EPOLLIN.
//
// Timers: a per-loop timerfd drives a deadline wheel (an ordered multimap of
// absolute deadlines) used for idle-connection harvesting (idle_timeout_s >
// 0) and for backing off the accept loop after EMFILE/ENFILE instead of
// spinning on a level-triggered listen socket.
//
// Sessions: the reactor runs the server half of the resumable-session
// protocol (session.hpp) — hello/accept, duplicate suppression, and reply
// buffering for replay onto whichever connection resumes the session.
// Without a session, a lost connection fails every call on it at once (the
// batched failure the client transport and the FT layer absorb).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "orb/message.hpp"
#include "orb/session.hpp"

namespace corba {

class ObjectAdapter;
class ReactorConn;

struct ReactorOptions {
  /// Event-loop thread count (>= 1): the server's whole receive-side thread
  /// budget, independent of connection count.
  std::size_t io_threads = 2;
  /// Harvest connections with no traffic for this long (seconds; 0 = never).
  /// Must comfortably exceed the slowest expected call — "traffic" is bytes
  /// read or replies written, so a single in-flight call longer than the
  /// timeout looks idle.
  double idle_timeout_s = 0;
};

/// One server endpoint's event-driven receive side (see file comment).
/// Owned by TcpServerEndpoint; borrows its listen fd and session table.
class Reactor {
 public:
  Reactor(int listen_fd, std::shared_ptr<ObjectAdapter> adapter,
          SessionTable& sessions, ReactorOptions options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the io_threads event loops (loop 0 owns the listen socket).
  void start();

  /// Wakes and joins every loop, then releases the connections.  Sockets
  /// with replies still queued on dispatch-pool completions stay open until
  /// the last completion drops its reference (graceful drain).  Idempotent.
  void stop();

  /// DispatchPool space callback: wakes every loop to retry stalled
  /// submissions.  Safe from any thread, including before start and after
  /// stop.
  void notify_pool_space() noexcept;

 private:
  friend class ReactorConn;
  struct Loop;

  void io_loop(Loop& loop);
  void handle_accept(Loop& loop);
  void handle_wake(Loop& loop);
  void handle_timer(Loop& loop);
  void handle_readable(Loop& loop, const std::shared_ptr<ReactorConn>& conn);
  /// Decodes and dispatches every complete frame in the read buffer.
  /// Returns false when the connection must be dropped.
  bool parse_frames(Loop& loop, const std::shared_ptr<ReactorConn>& conn);
  /// Handles one decoded frame; returns false to drop the connection.
  bool handle_frame(Loop& loop, const std::shared_ptr<ReactorConn>& conn,
                    const MessageHeader& header,
                    std::span<const std::byte> body);
  /// Hands one decoded request to the dispatch pool; on a full pool stashes
  /// it, disarms EPOLLIN and joins the loop's stalled list (returns true —
  /// stalling is not an error).  Returns false only when dispatch is
  /// impossible (pool stopped).
  bool submit_request(Loop& loop, const std::shared_ptr<ReactorConn>& conn,
                      RequestMessage request);
  void retry_stalled(Loop& loop);
  void register_conn(Loop& loop, const std::shared_ptr<ReactorConn>& conn);
  /// Takes the connection by value: callers routinely pass the shared_ptr
  /// stored in loop.conns, which the erase inside would otherwise destroy
  /// out from under them.
  void reap_conn(Loop& loop, std::shared_ptr<ReactorConn> conn);
  /// Submits a reaped connection's parked request so its reply still lands
  /// in the session replay buffer (see definition for why dropping it would
  /// lose the call).
  void salvage_stalled(Loop& loop, ReactorConn& conn);
  /// Queues `fd`'s deadline on the loop's wheel, re-arming the timerfd when
  /// it became the earliest.
  void schedule_deadline(Loop& loop, double when, int fd);
  void arm_timer(Loop& loop, double when_mono_s);
  void wake(Loop& loop) noexcept;
  /// Marks a connection dead from a writer thread and nudges its loop to
  /// reap it (reactor-internal; called by ReactorConn).
  void request_reap(std::size_t loop_index, int fd) noexcept;

  const int listen_fd_;
  std::shared_ptr<ObjectAdapter> adapter_;
  SessionTable& sessions_;
  const ReactorOptions options_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};  ///< round-robin accept assignment
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
};

/// Raises the process's RLIMIT_NOFILE soft limit toward min(want, hard
/// limit) and returns the resulting soft limit.  Emits a log warning when
/// the result is below `want` (a C10K test or bench on a default 1024
/// ulimit would otherwise fail with confusing EMFILE noise).  Idempotent
/// and safe to call from any harness.
std::size_t raise_nofile_soft_limit(std::size_t want);

}  // namespace corba
