#include "orb/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/log.hpp"
#include "orb/object_adapter.hpp"

namespace corba {

namespace {

struct ReactorMetrics {
  obs::Counter& wakeups = obs::MetricsRegistry::global().counter(
      "transport.tcp.reactor.wakeups_total");
  obs::Counter& events = obs::MetricsRegistry::global().counter(
      "transport.tcp.reactor.events_total");
  obs::Counter& deferred_writes = obs::MetricsRegistry::global().counter(
      "transport.tcp.reactor.deferred_writes_total");
  obs::Counter& idle_harvested = obs::MetricsRegistry::global().counter(
      "transport.tcp.reactor.idle_harvested_total");
  obs::Gauge& registered = obs::MetricsRegistry::global().gauge(
      "transport.tcp.epoll_registered");
  /// Shared with the client transport: process-wide open TCP connections
  /// (the orbtop CONN column reads it through HealthReport).
  obs::Gauge& connections =
      obs::MetricsRegistry::global().gauge("transport.tcp.connections");
  /// Time one epoll batch spends being processed — how long every other
  /// ready connection on this loop waited.  A fat tail here is an I/O
  /// thread overloaded (or a servant sneaking work onto it), invisible in
  /// per-request latency until throughput collapses.
  obs::Histogram& loop_lag = obs::MetricsRegistry::global().histogram(
      "transport.tcp.reactor.loop_lag_s");
};

ReactorMetrics& reactor_metrics() {
  static ReactorMetrics metrics;
  return metrics;
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// recv() granularity per syscall.
constexpr std::size_t kReadChunk = 16 * 1024;
/// Per-connection byte cap per epoll wake: a firehose client cannot starve
/// its loop siblings (level-triggered EPOLLIN re-fires for the rest).
constexpr std::size_t kMaxReadPerWake = 256 * 1024;
/// Accept backoff after fd exhaustion (EMFILE/ENFILE).
constexpr double kAcceptBackoffS = 0.1;
/// Deadline-wheel sentinel "fd" for re-arming the listen socket.
constexpr int kListenRearmFd = -2;
/// Compact the read buffer once this much parsed prefix accumulates.
constexpr std::size_t kCompactThreshold = 64 * 1024;

}  // namespace

/// One reactor-owned server connection.  Read-side state (buffer, session,
/// stalled request) is touched only by the owning I/O thread; the write side
/// (pending-write queue, epoll interest mask) is shared with dispatch-pool
/// completion threads under `wmu`.  Completions and session state hold it
/// shared: the socket stays open until the last queued reply for the
/// connection has been written (or dropped).
class ReactorConn final : public std::enable_shared_from_this<ReactorConn> {
 public:
  ReactorConn(int fd, Reactor* reactor, std::size_t loop_index)
      : fd_(fd), reactor_(reactor), loop_index_(loop_index) {}

  ~ReactorConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  ReactorConn(const ReactorConn&) = delete;
  ReactorConn& operator=(const ReactorConn&) = delete;

  /// Queues one fully encoded frame (header included) and writes as much as
  /// the socket takes.  Frames queued under a common lock (the session
  /// mutex, or any single caller) reach the wire in call order.  Marks the
  /// connection dead on failure instead of throwing — completions run on
  /// dispatch-pool threads where there is nobody to catch.
  void send_frame_bytes(std::vector<std::byte> bytes) noexcept {
    std::lock_guard lock(wmu_);
    if (dead_.load(std::memory_order_acquire)) return;
    wq_.push_back(std::move(bytes));
    flush_locked();
  }

  /// Encodes and queues a sessionless reply.  (The session path always goes
  /// through write_session_reply, which pre-encodes for the replay buffer.)
  void write_reply(const ReplyMessage& reply) noexcept {
    try {
      CdrOutputStream body;
      reply.encode_body(body);
      send_frame_bytes(encode_frame(MessageType::reply, body));
    } catch (...) {
      // Encoding failed: nothing sensible to do from a completion thread.
    }
  }

  /// True once a write failed or the peer vanished; a dead connection
  /// silently drops further writes.
  bool is_dead() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }

  /// Decoded request waiting out a full dispatch pool (EPOLLIN disarmed).
  /// Public so Reactor::Loop can park jobs orphaned by a reaped connection.
  struct StalledJob {
    RequestMessage request;
    DispatchPool::Completion done;
  };

 private:
  friend class Reactor;

  /// Drains the pending-write queue until empty or the socket would block
  /// (then arms EPOLLOUT).  Call with wmu_ held.
  void flush_locked() noexcept {
    while (!wq_.empty()) {
      const std::vector<std::byte>& head = wq_.front();
      while (woff_ < head.size()) {
        const ssize_t n = ::send(fd_, head.data() + woff_, head.size() - woff_,
                                 MSG_NOSIGNAL);
        if (n >= 0) {
          woff_ += static_cast<std::size_t>(n);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!want_write_) {
            want_write_ = true;
            update_interest_locked();
            reactor_metrics().deferred_writes.inc();
          }
          return;
        }
        mark_dead_locked();
        return;
      }
      woff_ = 0;
      wq_.pop_front();
    }
    touch();
    if (want_write_) {
      want_write_ = false;
      update_interest_locked();
    }
    if (close_after_flush_) mark_dead_locked();
  }

  /// Re-publishes the EPOLLIN/EPOLLOUT interest mask (wmu_ held).  Both the
  /// I/O thread (back-pressure) and completion threads (deferred writes)
  /// change interest, which is why the mask lives under the write mutex.
  void update_interest_locked() noexcept {
    if (!registered_) return;
    epoll_event ev{};
    ev.events = (want_read_ ? EPOLLIN : 0u) | (want_write_ ? EPOLLOUT : 0u);
    ev.data.fd = fd_;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd_, &ev);
  }

  void mark_dead_locked() noexcept {
    if (dead_.exchange(true, std::memory_order_acq_rel)) return;
    wq_.clear();
    reactor_->request_reap(loop_index_, fd_);
  }

  void touch() noexcept {
    last_activity_.store(monotonic_seconds(), std::memory_order_relaxed);
  }

  const int fd_;
  Reactor* const reactor_;
  const std::size_t loop_index_;
  int epfd_ = -1;  ///< set at registration, before any writer can see us

  // --- read side: owning I/O thread only ------------------------------------
  std::vector<std::byte> rbuf_;
  std::size_t rlen_ = 0;  ///< valid bytes in rbuf_
  std::size_t rpos_ = 0;  ///< parse offset
  std::shared_ptr<ServerSession> session_;
  std::optional<StalledJob> stalled_;
  /// Set after answering an unknown message type with message_error: any
  /// further input is read (so HUP/EOF is still observed) but discarded —
  /// after a bad frame the stream position can no longer be trusted, so
  /// nothing behind it may execute.
  bool discard_input_ = false;

  // --- write side: shared with completion threads under wmu_ ----------------
  std::mutex wmu_;
  std::deque<std::vector<std::byte>> wq_;
  std::size_t woff_ = 0;  ///< bytes of wq_.front() already written
  bool want_read_ = true;
  bool want_write_ = false;
  bool close_after_flush_ = false;
  bool registered_ = false;
  std::atomic<bool> dead_{false};
  std::atomic<double> last_activity_{0.0};
};

namespace {

/// Stamps session seq/ack on `reply`, buffers the encoded frame for replay,
/// and writes it to the session's *current* carrier (which may have changed
/// since the request arrived — a completion finishing after a resume lands
/// on the new socket), falling back to the connection the request came in
/// on.  Holding the session mutex across assignment and write keeps reply
/// wire order equal to reply seq order per session — the client's cumulative
/// highest-reply bookkeeping (and therefore replay) depends on it.
void write_session_reply(const std::shared_ptr<ServerSession>& session,
                         const std::shared_ptr<ReactorConn>& fallback,
                         ReplyMessage reply) noexcept {
  try {
    // Lock order: session->mu, then the connection's write mutex (inside
    // send_frame_bytes).
    std::lock_guard slock(session->mu);
    reply.has_session = true;
    reply.session_seq = session->next_reply_seq++;
    reply.session_ack = session->highest_request_seq;
    CdrOutputStream body;
    reply.encode_body(body);
    std::vector<std::byte> frame = encode_frame(MessageType::reply, body);
    // Buffer before writing: a write failure (or a dead connection) leaves
    // the frame for the next resume's replay instead of losing the reply.
    if (session->replies.full()) {
      session->replies.evict_oldest();
      session->gapped = true;  // replay can no longer cover the hole
    }
    session->replies.append(reply.session_seq, reply.request_id, frame);
    std::shared_ptr<ReactorConn> connection = session->carrier.lock();
    if (!connection) connection = fallback;
    if (!connection || connection->is_dead())
      return;  // buffered; the replay will deliver it
    connection->send_frame_bytes(std::move(frame));
  } catch (...) {
    // Encoding failed: nothing sensible to do from a completion thread.
  }
}

/// Handles one decoded session_hello on `connection`: creates or resumes the
/// session in `table`, installs `connection` as the session's carrier, and
/// writes the accept frame plus any replayed replies (all under the session
/// mutex, so a completing dispatch cannot interleave a fresh reply before
/// the replayed ones).  Returns the session, or nullptr when the hello was
/// rejected (unknown/stale id, or a gapped reply buffer made an exactly-once
/// resume impossible) — the reject accept frame has already been written.
std::shared_ptr<ServerSession> handle_session_hello(
    SessionTable& table, const SessionHello& hello,
    const std::shared_ptr<ReactorConn>& connection) {
  std::shared_ptr<ServerSession> session =
      hello.session_id == 0 ? table.create() : table.find(hello.session_id);
  SessionAccept accept;
  accept.ok = false;
  std::size_t replayed = 0;
  if (session) {
    std::lock_guard slock(session->mu);
    if (session->gapped) {
      session.reset();  // reply buffer has a hole: resume is unsafe
    } else {
      accept.ok = true;
      accept.session_id = session->id;
      accept.highest_request_seq = session->highest_request_seq;
      session->carrier = connection;
      session->replies.ack(hello.highest_reply_seq);
      // Write accept + replay while still holding session->mu so a
      // completing dispatch cannot interleave a new reply before the
      // replayed ones.
      CdrOutputStream accept_body;
      accept.encode_body(accept_body);
      connection->send_frame_bytes(
          encode_frame(MessageType::session_accept, accept_body));
      for (const SessionFrame* frame :
           session->replies.after(hello.highest_reply_seq)) {
        connection->send_frame_bytes(frame->bytes);
        ++replayed;
      }
    }
  }
  if (!accept.ok) {
    // Unknown/stale session (restart, table cull) or a gapped reply buffer:
    // an exactly-once resume is impossible — reject and let the client fall
    // back to the batched-failure path.
    CdrOutputStream accept_body;
    accept.encode_body(accept_body);
    connection->send_frame_bytes(
        encode_frame(MessageType::session_accept, accept_body));
  }
  if (replayed > 0) session_metrics().replayed_replies.inc(replayed);
  return session;
}

/// Session bookkeeping for one decoded request: applies the piggybacked
/// cumulative ack and suppresses replayed duplicates.  Returns false when
/// the request is a duplicate that must NOT be dispatched again (its reply
/// reaches the client through the session's reply buffer).
bool note_session_request(const std::shared_ptr<ServerSession>& session,
                          const RequestMessage& request) {
  const auto ctx = extract_session_context(request);
  if (!ctx) return true;
  std::lock_guard slock(session->mu);
  session->replies.ack(ctx->ack);  // piggybacked cumulative ack
  if (ctx->seq <= session->highest_request_seq) {
    // Replayed duplicate: the request already executed (or still is).  Its
    // reply reaches the client through the session's reply buffer — the
    // hello replay carried it, or the in-flight completion will land on the
    // resumed connection — so the duplicate is suppressed, never
    // re-executed.
    session_metrics().duplicates_suppressed.inc();
    return false;
  }
  session->highest_request_seq = ctx->seq;
  return true;
}

/// Hands a request to the adapter's dispatch pool — run right here on the
/// I/O thread when the target servant is non_blocking() and its key idle.
/// Returns false, with `request`/`done` untouched, while the pool is at
/// capacity; throws BAD_INV_ORDER once the pool is stopped.
bool try_dispatch(ObjectAdapter& adapter, RequestMessage& request,
                  DispatchPool::Completion& done) {
  const std::shared_ptr<Servant> servant = adapter.find(request.object_key);
  if (servant && servant->non_blocking())
    return adapter.dispatch_pool()->try_run_inline(request, done);
  return adapter.dispatch_pool()->try_submit(request, done);
}

}  // namespace

/// Per-I/O-thread state.  `conns`, `stalled` and the deadline wheel belong
/// to the owning thread; `pending_adds`/`pending_reaps` are the cross-thread
/// handoff, guarded by `mu` and signalled through the wake eventfd.
struct Reactor::Loop {
  std::size_t index = 0;
  int epfd = -1;
  int wake_fd = -1;
  int timer_fd = -1;
  std::thread thread;

  std::unordered_map<int, std::shared_ptr<ReactorConn>> conns;  ///< by fd
  std::vector<std::shared_ptr<ReactorConn>> stalled;
  /// Parked requests whose connection was reaped while the pool was still
  /// full; retried (ahead of `stalled`) on the next space callback so their
  /// replies reach the session replay buffer.
  std::vector<ReactorConn::StalledJob> orphans;
  /// Deadline wheel: absolute monotonic seconds -> connection fd (or the
  /// listen-rearm sentinel).  The timerfd is armed to the earliest entry.
  std::multimap<double, int> deadlines;
  double timer_armed_at = std::numeric_limits<double>::infinity();
  bool listen_paused = false;  ///< loop 0: EMFILE backoff in progress

  std::mutex mu;
  std::vector<std::shared_ptr<ReactorConn>> pending_adds;
  std::vector<int> pending_reaps;
  std::atomic<bool> retry_submits{false};
};

Reactor::Reactor(int listen_fd, std::shared_ptr<ObjectAdapter> adapter,
                 SessionTable& sessions, ReactorOptions options)
    : listen_fd_(listen_fd),
      adapter_(std::move(adapter)),
      sessions_(sessions),
      options_(options) {
  if (options_.io_threads < 1)
    throw BAD_PARAM("reactor requires >= 1 io thread");
}

Reactor::~Reactor() {
  stop();
  for (auto& loop : loops_) {
    if (loop->epfd >= 0) ::close(loop->epfd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    if (loop->timer_fd >= 0) ::close(loop->timer_fd);
  }
}

void Reactor::start() {
  if (started_) return;
  started_ = true;
  // The endpoint creates its listen socket blocking; the reactor accepts in
  // bursts until EAGAIN, so the fd itself must be non-blocking or loop 0
  // would park in accept4.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  loops_.reserve(options_.io_threads);
  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    loop->timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    if (loop->epfd < 0 || loop->wake_fd < 0 || loop->timer_fd < 0)
      throw COMM_FAILURE(std::string("reactor setup: ") + std::strerror(errno),
                         minor_code::unspecified,
                         CompletionStatus::completed_no);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    ev.data.fd = loop->timer_fd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->timer_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // Loop 0 owns the listen socket — there is no separate acceptor thread;
  // io_threads IS the server's receive-side thread budget.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  for (auto& loop : loops_)
    loop->thread = std::thread([this, raw = loop.get()] { io_loop(*raw); });
}

void Reactor::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) wake(*loop);
  for (auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
  for (auto& loop : loops_) {
    std::lock_guard lock(loop->mu);
    const auto registered = static_cast<double>(loop->conns.size());
    // pending_adds were counted at accept but never registered with epoll,
    // so they carry only the connections gauge.
    const auto open =
        registered + static_cast<double>(loop->pending_adds.size());
    if (registered > 0) reactor_metrics().registered.add(-registered);
    if (open > 0) reactor_metrics().connections.add(-open);
    // Dropping the map releases each connection; sockets with completions
    // still holding a reference stay open until the last reply is written.
    loop->conns.clear();
    loop->stalled.clear();
    loop->orphans.clear();
    loop->deadlines.clear();
    loop->pending_adds.clear();
    loop->pending_reaps.clear();
  }
}

void Reactor::notify_pool_space() noexcept {
  for (auto& loop : loops_) {
    loop->retry_submits.store(true, std::memory_order_release);
    wake(*loop);
  }
}

void Reactor::wake(Loop& loop) noexcept {
  if (loop.wake_fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.wake_fd, &one, sizeof(one));  // nonblocking; EAGAIN is fine
}

void Reactor::request_reap(std::size_t loop_index, int fd) noexcept {
  if (loop_index >= loops_.size()) return;
  Loop& loop = *loops_[loop_index];
  {
    std::lock_guard lock(loop.mu);
    loop.pending_reaps.push_back(fd);
  }
  wake(loop);
}

void Reactor::io_loop(Loop& loop) {
  std::vector<epoll_event> events(256);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop.epfd, events.data(), static_cast<int>(events.size()),
                     -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epfd gone: endpoint torn down
    }
    reactor_metrics().wakeups.inc();
    reactor_metrics().events.inc(static_cast<std::uint64_t>(n));
    const double batch_started = monotonic_seconds();
    bool woken = false;
    bool timer_fired = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(loop.wake_fd, &drain, sizeof(drain));
        woken = true;
        continue;
      }
      if (fd == loop.timer_fd) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(loop.timer_fd, &expirations, sizeof(expirations));
        timer_fired = true;
        continue;
      }
      if (fd == listen_fd_ && loop.index == 0) {
        handle_accept(loop);
        continue;
      }
      // Stale events for a connection reaped earlier in this batch miss the
      // lookup and are skipped — fds are never reused while still mapped,
      // because the connection owns its fd until the last reference drops.
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      const std::shared_ptr<ReactorConn> conn = it->second;
      if (events[i].events & EPOLLERR) {
        reap_conn(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        std::lock_guard lock(conn->wmu_);
        conn->flush_locked();
      }
      if (events[i].events & (EPOLLIN | EPOLLHUP)) {
        if (conn->stalled_) {
          // Interest is 0 while stalled, but HUP (like ERR) cannot be
          // masked out of epoll, and handle_readable must not consume
          // while a request is parked.  Reap instead of letting the
          // level-triggered HUP pin this loop at 100% CPU; the parked
          // request is salvaged for live sessions inside reap_conn.
          if (events[i].events & EPOLLHUP) reap_conn(loop, conn);
        } else {
          handle_readable(loop, conn);
        }
      }
      if (conn->is_dead()) reap_conn(loop, conn);
    }
    if (timer_fired) handle_timer(loop);
    // Cross-thread work *after* the events batch: a connection registered
    // here cannot alias a same-batch event for a just-freed fd.
    if (woken) handle_wake(loop);
    if (loop.retry_submits.exchange(false, std::memory_order_acq_rel))
      retry_stalled(loop);
    reactor_metrics().loop_lag.record(monotonic_seconds() - batch_started);
  }
}

void Reactor::handle_accept(Loop& loop) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of file descriptors: stop accepting for a beat instead of
        // spinning on the level-triggered listen event, and let in-flight
        // work (which may be on the verge of releasing fds) drain.
        log::emit(log::Level::warning, "reactor",
                  "accept failed (out of file descriptors); pausing accepts");
        if (!loop.listen_paused) {
          loop.listen_paused = true;
          ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
          schedule_deadline(loop, monotonic_seconds() + kAcceptBackoffS,
                            kListenRearmFd);
        }
        return;
      }
      if (errno == ECONNABORTED || errno == EPROTO)
        continue;  // the would-be client is already gone; keep accepting
      // Anything else (EBADF during teardown, EINVAL): bail out of the burst
      // rather than spin — level-triggered EPOLLIN re-fires if the listen
      // socket is still live and readable.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    auto conn = std::make_shared<ReactorConn>(fd, this, target);
    conn->touch();
    reactor_metrics().connections.add(1);
    if (target == loop.index) {
      register_conn(loop, conn);
    } else {
      Loop& other = *loops_[target];
      {
        std::lock_guard lock(other.mu);
        other.pending_adds.push_back(std::move(conn));
      }
      wake(other);
    }
  }
}

void Reactor::register_conn(Loop& loop,
                            const std::shared_ptr<ReactorConn>& conn) {
  {
    std::lock_guard lock(conn->wmu_);
    conn->epfd_ = loop.epfd;
    conn->registered_ = true;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd_;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd_, &ev) != 0) {
    reactor_metrics().connections.add(-1);
    return;  // dropping the last reference closes the socket
  }
  loop.conns.emplace(conn->fd_, conn);
  reactor_metrics().registered.add(1);
  if (options_.idle_timeout_s > 0)
    schedule_deadline(loop, monotonic_seconds() + options_.idle_timeout_s,
                      conn->fd_);
}

void Reactor::reap_conn(Loop& loop, std::shared_ptr<ReactorConn> conn) {
  auto it = loop.conns.find(conn->fd_);
  if (it == loop.conns.end() || it->second != conn) return;
  ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd_, nullptr);
  {
    std::lock_guard lock(conn->wmu_);
    conn->registered_ = false;
  }
  loop.conns.erase(it);
  std::erase(loop.stalled, conn);
  reactor_metrics().registered.add(-1);
  reactor_metrics().connections.add(-1);
  if (conn->stalled_ && conn->session_) salvage_stalled(loop, *conn);
}

/// A reaped connection can hold a parked request whose seq the session has
/// already noted — the client's post-resume retransmit of that seq is
/// suppressed as a duplicate, so dropping the job here would lose the call
/// with no retry: once noted, a request must execute exactly once.  Submit
/// it anyway: the completion routes through write_session_reply, which
/// buffers into the session replay even though this connection is gone.
void Reactor::salvage_stalled(Loop& loop, ReactorConn& conn) {
  ReactorConn::StalledJob job = std::move(*conn.stalled_);
  conn.stalled_.reset();
  try {
    if (try_dispatch(*adapter_, job.request, job.done)) return;
  } catch (const Exception&) {
    return;  // pool stopped: the endpoint is going down
  }
  // Pool still full: keep the job loop-side; the space callback retries it.
  loop.orphans.push_back(std::move(job));
}

void Reactor::handle_wake(Loop& loop) {
  std::vector<std::shared_ptr<ReactorConn>> adds;
  std::vector<int> reaps;
  {
    std::lock_guard lock(loop.mu);
    adds.swap(loop.pending_adds);
    reaps.swap(loop.pending_reaps);
  }
  for (const int fd : reaps) {
    auto it = loop.conns.find(fd);
    if (it != loop.conns.end() && it->second->is_dead())
      reap_conn(loop, it->second);
  }
  for (auto& conn : adds) register_conn(loop, conn);
}

void Reactor::handle_timer(Loop& loop) {
  const double now = monotonic_seconds();
  loop.timer_armed_at = std::numeric_limits<double>::infinity();
  while (!loop.deadlines.empty() && loop.deadlines.begin()->first <= now) {
    const int fd = loop.deadlines.begin()->second;
    loop.deadlines.erase(loop.deadlines.begin());
    if (fd == kListenRearmFd) {
      loop.listen_paused = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      ::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
      continue;
    }
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) continue;
    // Copy, not reference: reap_conn erases the map entry this points into.
    const std::shared_ptr<ReactorConn> conn = it->second;
    const double expire =
        conn->last_activity_.load(std::memory_order_relaxed) +
        options_.idle_timeout_s;
    if (expire <= now && !conn->stalled_) {
      // Lazy wheel: entries are never removed on activity, just checked
      // against the connection's actual last-activity stamp here.
      reactor_metrics().idle_harvested.inc();
      reap_conn(loop, conn);
    } else {
      schedule_deadline(loop, std::max(expire, now + 0.001), fd);
    }
  }
  if (!loop.deadlines.empty())
    arm_timer(loop, loop.deadlines.begin()->first);
}

void Reactor::schedule_deadline(Loop& loop, double when, int fd) {
  loop.deadlines.emplace(when, fd);
  if (when < loop.timer_armed_at) arm_timer(loop, when);
}

void Reactor::arm_timer(Loop& loop, double when_mono_s) {
  loop.timer_armed_at = when_mono_s;
  const double delay = std::max(when_mono_s - monotonic_seconds(), 1e-3);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(delay);
  spec.it_value.tv_nsec =
      static_cast<long>((delay - static_cast<double>(spec.it_value.tv_sec)) *
                        1e9);
  ::timerfd_settime(loop.timer_fd, 0, &spec, nullptr);
}

void Reactor::handle_readable(Loop& loop,
                              const std::shared_ptr<ReactorConn>& conn) {
  if (conn->stalled_) return;  // EPOLLIN is disarmed; stray level event
  std::size_t total = 0;
  bool eof = false;
  for (;;) {
    if (conn->rbuf_.size() - conn->rlen_ < kReadChunk)
      conn->rbuf_.resize(conn->rlen_ + kReadChunk);
    const ssize_t n = ::recv(conn->fd_, conn->rbuf_.data() + conn->rlen_,
                             conn->rbuf_.size() - conn->rlen_, 0);
    if (n > 0) {
      conn->rlen_ += static_cast<std::size_t>(n);
      total += static_cast<std::size_t>(n);
      if (total >= kMaxReadPerWake) break;  // fairness: let siblings run
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    reap_conn(loop, conn);
    return;
  }
  if (total > 0) {
    conn->touch();
    if (!parse_frames(loop, conn)) {
      reap_conn(loop, conn);
      return;
    }
  }
  if (eof) {
    // Orderly close: the receive side is done.  The socket itself stays open
    // while dispatch-pool completions still hold the connection — a client
    // that half-closes after its last request still gets the replies, which
    // drain best-effort before the last reference closes the fd.
    reap_conn(loop, conn);
  }
}

bool Reactor::parse_frames(Loop& loop,
                           const std::shared_ptr<ReactorConn>& conn) {
  try {
    while (!conn->stalled_ && !conn->discard_input_) {
      const std::size_t avail = conn->rlen_ - conn->rpos_;
      if (avail < MessageHeader::kEncodedSize) break;
      const std::span<const std::byte> head(conn->rbuf_.data() + conn->rpos_,
                                            MessageHeader::kEncodedSize);
      const MessageHeader header = MessageHeader::decode(head);  // may throw
      const std::size_t frame_size =
          MessageHeader::kEncodedSize + header.body_length;
      // Partial frame: wait for more bytes.  handle_readable grows the
      // buffer as they arrive, so an announced length costs no memory.
      if (avail < frame_size) break;
      const std::span<const std::byte> body(
          conn->rbuf_.data() + conn->rpos_ + MessageHeader::kEncodedSize,
          header.body_length);
      // Consume before handling: a stalled request has already been decoded
      // out of the buffer, so the resume path must not see it again.
      conn->rpos_ += frame_size;
      if (!handle_frame(loop, conn, header, body)) return false;
    }
  } catch (const Exception&) {
    // Framing/marshal error: drop the connection.  The client sees
    // COMM_FAILURE, which is exactly what a real ORB produces.
    return false;
  }
  // After a message_error no further input is processed: discard whatever
  // valid frames were buffered behind the bad one.
  if (conn->discard_input_) conn->rpos_ = conn->rlen_;
  if (conn->rpos_ == conn->rlen_) {
    conn->rpos_ = conn->rlen_ = 0;
  } else if (conn->rpos_ >= kCompactThreshold) {
    std::memmove(conn->rbuf_.data(), conn->rbuf_.data() + conn->rpos_,
                 conn->rlen_ - conn->rpos_);
    conn->rlen_ -= conn->rpos_;
    conn->rpos_ = 0;
  }
  return true;
}

bool Reactor::handle_frame(Loop& loop,
                           const std::shared_ptr<ReactorConn>& conn,
                           const MessageHeader& header,
                           std::span<const std::byte> body) {
  switch (header.type) {
    case MessageType::close_connection:
      return false;
    case MessageType::session_hello: {
      CdrInputStream in(body, header.byte_order);
      const SessionHello hello = SessionHello::decode_body(in);
      conn->session_ = handle_session_hello(sessions_, hello, conn);
      return !conn->is_dead();
    }
    case MessageType::request: {
      CdrInputStream in(body, header.byte_order);
      RequestMessage request = RequestMessage::decode_body(in);
      if (conn->session_ && !note_session_request(conn->session_, request))
        return true;  // replayed duplicate: suppressed, never re-executed
      return submit_request(loop, conn, std::move(request));
    }
    default: {
      // Unknown message type: answer message_error, then close once the
      // error frame has left the pending-write queue.
      CdrOutputStream empty;
      conn->send_frame_bytes(encode_frame(MessageType::message_error, empty));
      std::lock_guard lock(conn->wmu_);
      if (conn->wq_.empty())
        return false;  // already flushed inline: drop now
      conn->close_after_flush_ = true;
      conn->want_read_ = false;
      conn->update_interest_locked();
      conn->discard_input_ = true;  // stop parsing; parse_frames drops the rest
      return true;  // reaped via mark_dead once the flush completes
    }
  }
}

bool Reactor::submit_request(Loop& loop,
                             const std::shared_ptr<ReactorConn>& conn,
                             RequestMessage request) {
  DispatchPool::Completion done;
  if (request.response_expected) {
    if (conn->session_)
      done = [session = conn->session_, conn](ReplyMessage reply) {
        write_session_reply(session, conn, std::move(reply));
      };
    else
      done = [conn](ReplyMessage reply) { conn->write_reply(reply); };
  }
  try {
    if (try_dispatch(*adapter_, request, done)) return true;
  } catch (const Exception&) {
    return false;  // pool stopped: the endpoint is going down
  }
  // Pool at capacity: park the request, stop reading this connection, and
  // let TCP flow control push back to the client.  The pool's space
  // callback wakes this loop to retry.
  conn->stalled_.emplace(
      ReactorConn::StalledJob{std::move(request), std::move(done)});
  {
    std::lock_guard lock(conn->wmu_);
    conn->want_read_ = false;
    conn->update_interest_locked();
  }
  loop.stalled.push_back(conn);
  return true;
}

void Reactor::retry_stalled(Loop& loop) {
  // Orphaned jobs from reaped connections go first: their seqs were noted
  // before anything now parked on a live connection.
  while (!loop.orphans.empty()) {
    ReactorConn::StalledJob& job = loop.orphans.front();
    try {
      if (!try_dispatch(*adapter_, job.request, job.done))
        return;  // still full: the next space callback retries everything
    } catch (const Exception&) {
      // pool stopped: the endpoint is going down, drop the job
    }
    loop.orphans.erase(loop.orphans.begin());
  }
  std::vector<std::shared_ptr<ReactorConn>> stalled;
  stalled.swap(loop.stalled);
  for (std::size_t i = 0; i < stalled.size(); ++i) {
    const std::shared_ptr<ReactorConn>& conn = stalled[i];
    if (conn->is_dead() || !conn->stalled_) continue;
    bool accepted = false;
    try {
      accepted = try_dispatch(*adapter_, conn->stalled_->request,
                              conn->stalled_->done);
    } catch (const Exception&) {
      reap_conn(loop, conn);
      continue;
    }
    if (!accepted) {
      // Still full: keep this and every remaining connection parked (the
      // next space callback retries them all).
      loop.stalled.insert(loop.stalled.end(), stalled.begin() + i,
                          stalled.end());
      return;
    }
    conn->stalled_.reset();
    // Drain whatever frames were already buffered (this may stall again,
    // putting the connection back on the list), then resume reading.
    if (!parse_frames(loop, conn)) {
      reap_conn(loop, conn);
      continue;
    }
    if (!conn->stalled_) {
      std::lock_guard lock(conn->wmu_);
      conn->want_read_ = true;
      conn->update_interest_locked();
    }
  }
}

std::size_t raise_nofile_soft_limit(std::size_t want) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 0;
  const rlim_t target =
      limit.rlim_max == RLIM_INFINITY
          ? static_cast<rlim_t>(want)
          : std::min<rlim_t>(static_cast<rlim_t>(want), limit.rlim_max);
  if (limit.rlim_cur < target) {
    rlimit raised = limit;
    raised.rlim_cur = target;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) limit = raised;
  }
  const auto result = static_cast<std::size_t>(
      limit.rlim_cur == RLIM_INFINITY ? want : limit.rlim_cur);
  if (result < want && log::enabled())
    log::emit(log::Level::warning, "transport",
              "RLIMIT_NOFILE soft limit " + std::to_string(result) +
                  " is below the requested " + std::to_string(want) +
                  "; connection-heavy workloads may hit EMFILE");
  return result;
}

}  // namespace corba
