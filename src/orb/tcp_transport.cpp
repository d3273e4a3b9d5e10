#include "orb/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/event_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"
#include "orb/reactor.hpp"

namespace corba {

namespace {

[[noreturn]] void throw_errno(const std::string& what, std::uint32_t minor,
                              CompletionStatus completed) {
  throw COMM_FAILURE(what + ": " + std::strerror(errno), minor, completed);
}

constexpr int kPollIntervalMs = 100;

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MuxMetrics {
  obs::Counter& pipelined = obs::MetricsRegistry::global().counter(
      "transport.tcp.pipelined_total");
  obs::Counter& discarded = obs::MetricsRegistry::global().counter(
      "transport.tcp.discarded_replies_total");
  /// discarded_replies_total split by reason: `late` is the reply of a call
  /// its caller abandoned (timeout / dropped handle) — its pending-table
  /// entry is reaped on arrival; `duplicate` is a reply nobody ever waited
  /// for under that id (session replay duplicates, stray frames).
  obs::Counter& discarded_late = obs::MetricsRegistry::global().counter(
      "transport.tcp.discarded_replies_late_total");
  obs::Counter& discarded_duplicate = obs::MetricsRegistry::global().counter(
      "transport.tcp.discarded_replies_duplicate_total");
  obs::Counter& batch_failed = obs::MetricsRegistry::global().counter(
      "transport.tcp.batched_failures_total");
  obs::Counter& idle_closed = obs::MetricsRegistry::global().counter(
      "transport.tcp.idle_closed_total");
  obs::Gauge& inflight =
      obs::MetricsRegistry::global().gauge("transport.tcp.inflight");
  obs::Gauge& connections =
      obs::MetricsRegistry::global().gauge("transport.tcp.connections");
};

MuxMetrics& mux_metrics() {
  static MuxMetrics metrics;
  return metrics;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), scratch_(std::move(other.scratch_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    scratch_ = std::move(other.scratch_);
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect(const std::string& host, std::uint16_t port,
                       double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw_errno("socket", minor_code::connect_failed,
                CompletionStatus::completed_no);
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw COMM_FAILURE("bad address '" + host + "'", minor_code::connect_failed,
                       CompletionStatus::completed_no);
  // Non-blocking connect + EINTR-safe poll: a black-holed SYN honors the
  // caller's deadline budget instead of the kernel's minutes-long default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS)
    throw_errno("connect to " + host + ":" + std::to_string(port),
                minor_code::connect_failed, CompletionStatus::completed_no);
  if (rc != 0) {
    const auto deadline =
        timeout_s > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(timeout_s))
            : std::chrono::steady_clock::time_point::max();
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline)
        throw COMM_FAILURE(
            "connect to " + host + ":" + std::to_string(port) + " timed out",
            minor_code::connect_failed, CompletionStatus::completed_no);
      int slice_ms = kPollIntervalMs;
      if (deadline != std::chrono::steady_clock::time_point::max()) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
        slice_ms = static_cast<int>(
            std::min<long long>(slice_ms, std::max<long long>(1, remaining)));
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, slice_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll", minor_code::connect_failed,
                    CompletionStatus::completed_no);
      }
      if (pr > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      if (err != 0) errno = err;
      throw_errno("connect to " + host + ":" + std::to_string(port),
                  minor_code::connect_failed, CompletionStatus::completed_no);
    }
  }
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags);  // restore blocking mode
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

void Socket::write_all(std::span<const std::byte> data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send", minor_code::connection_lost,
                  CompletionStatus::completed_maybe);
    }
    written += static_cast<std::size_t>(n);
  }
}

bool Socket::read_all(std::span<std::byte> data, bool eof_ok,
                      double timeout_s) {
  const auto deadline =
      timeout_s > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(timeout_s))
          : std::chrono::steady_clock::time_point::max();
  std::size_t read = 0;
  while (read < data.size()) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw TIMEOUT("no reply within the request timeout",
                    minor_code::unspecified, CompletionStatus::completed_maybe);
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollIntervalMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll", minor_code::connection_lost,
                  CompletionStatus::completed_maybe);
    }
    if (pr == 0) continue;
    const ssize_t n = ::recv(fd_, data.data() + read, data.size() - read, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv", minor_code::connection_lost,
                  CompletionStatus::completed_maybe);
    }
    if (n == 0) {
      if (eof_ok && read == 0) return false;
      throw COMM_FAILURE("connection closed mid-frame",
                         minor_code::connection_lost,
                         CompletionStatus::completed_maybe);
    }
    read += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::send_frame(MessageType type, const CdrOutputStream& body) {
  write_all(encode_frame(type, body));
}

FrameBuilder Socket::start_frame(MessageType type, std::size_t size_hint) {
  FrameBuilder frame(type, std::move(scratch_));
  if (size_hint > 0) frame.body().reserve(size_hint);
  return frame;
}

void Socket::finish_frame(FrameBuilder& frame) {
  std::vector<std::byte> bytes = frame.finish();
  write_all(bytes);
  scratch_ = std::move(bytes);  // reclaim the capacity for the next frame
}

bool Socket::recv_frame(MessageHeader& header, std::vector<std::byte>& body,
                        double timeout_s) {
  std::array<std::byte, MessageHeader::kEncodedSize> head_bytes;
  if (!read_all(head_bytes, /*eof_ok=*/true, timeout_s)) return false;
  header = MessageHeader::decode(head_bytes);  // bounds body_length
  body.resize(header.body_length);
  if (header.body_length > 0) read_all(body, /*eof_ok=*/false, timeout_s);
  return true;
}

bool Socket::wait_readable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr < 0) {
    if (errno == EINTR) return false;
    throw_errno("poll", minor_code::connection_lost,
                CompletionStatus::completed_maybe);
  }
  return pr > 0;  // POLLHUP/POLLERR count: the next read reports the close
}

// --- multiplexed client connection ------------------------------------------

/// Reply handle for a pipelined request, completed leader/followers-style:
/// get() reads the socket itself when no other caller is, and otherwise
/// waits for a sibling leader to demux its reply (or to hand leadership
/// over).
class TcpMuxPendingReply final : public PendingReply {
 public:
  TcpMuxPendingReply(std::shared_ptr<TcpConnection> connection,
                     std::shared_ptr<TcpConnection::Waiter> waiter,
                     std::uint64_t request_id, double timeout_s)
      : connection_(std::move(connection)),
        waiter_(std::move(waiter)),
        request_id_(request_id),
        deadline_(timeout_s > 0
                      ? std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(timeout_s))
                      : std::chrono::steady_clock::time_point::max()) {}

  ~TcpMuxPendingReply() override {
    // Never consumed: abandon the waiter so a late reply is discarded
    // instead of accumulating forever in the connection's demux table.
    if (!consumed_) abandon();
  }

  bool ready() override {
    if (waiter_->done.load(std::memory_order_acquire)) return true;
    // No dedicated reader thread exists, so a poll-only caller must drain
    // the socket itself for its reply to ever complete: briefly take
    // leadership (if free) and demux whatever frames are already buffered.
    std::unique_lock lock(connection_->mu_);
    if (connection_->leader_active_ ||
        connection_->broken_.load(std::memory_order_acquire))
      return waiter_->done.load(std::memory_order_acquire);
    connection_->leader_active_ = true;
    connection_->drain_available_locked(lock);
    connection_->leader_active_ = false;
    connection_->promote_follower_locked();
    return waiter_->done.load(std::memory_order_acquire);
  }

  ReplyMessage get() override {
    consumed_ = true;
    std::unique_lock lock(connection_->mu_);
    for (;;) {
      if (waiter_->done.load(std::memory_order_acquire)) {
        lock.unlock();
        return consume();
      }
      if (!connection_->leader_active_) {
        // Leader: read the socket directly — a lone caller gets its reply
        // with no extra thread hop; with siblings in flight, demux theirs
        // along the way.
        connection_->leader_active_ = true;
        const bool completed = connection_->lead(lock, waiter_, deadline_);
        connection_->leader_active_ = false;
        connection_->promote_follower_locked();
        if (waiter_->done.load(std::memory_order_acquire)) {
          lock.unlock();
          return consume();
        }
        if (!completed) return timeout(lock);
        continue;
      }
      // Follower: wait for the leader to demux our reply or to hand the
      // socket over.
      waiter_->blocked = true;
      const bool woken = waiter_->cv.wait_until(lock, deadline_, [this] {
        return waiter_->done.load(std::memory_order_acquire) ||
               !connection_->leader_active_;
      });
      waiter_->blocked = false;
      if (!woken) return timeout(lock);
    }
  }

 private:
  ReplyMessage consume() {
    mux_metrics().inflight.add(-1);
    if (waiter_->error) std::rethrow_exception(waiter_->error);
    return std::move(waiter_->reply);
  }

  /// Abandon this call only (deadline expired, reply still pending).  The
  /// connection and every other in-flight call on it stay healthy; the next
  /// leader discards our late reply when (if) it arrives, reaping the
  /// abandoned-call entry it leaves behind.
  [[noreturn]] ReplyMessage timeout(std::unique_lock<std::mutex>& lock) {
    if (connection_->waiters_.erase(request_id_) > 0)
      connection_->abandoned_.insert(request_id_);
    lock.unlock();
    mux_metrics().inflight.add(-1);
    throw TIMEOUT("no reply within the request timeout",
                  minor_code::unspecified, CompletionStatus::completed_maybe);
  }

  void abandon() noexcept {
    std::lock_guard lock(connection_->mu_);
    if (!waiter_->done.load(std::memory_order_acquire) &&
        connection_->waiters_.erase(request_id_) > 0)
      connection_->abandoned_.insert(request_id_);
    mux_metrics().inflight.add(-1);
  }

  std::shared_ptr<TcpConnection> connection_;
  std::shared_ptr<TcpConnection::Waiter> waiter_;
  std::uint64_t request_id_;
  std::chrono::steady_clock::time_point deadline_;
  bool consumed_ = false;
};

namespace {

/// Client half of the session handshake: sends hello, waits for accept.
SessionAccept client_handshake(Socket& socket, std::uint64_t session_id,
                               std::uint64_t highest_reply_seq,
                               double timeout_s) {
  CdrOutputStream hello_body;
  SessionHello{session_id, highest_reply_seq}.encode_body(hello_body);
  socket.send_frame(MessageType::session_hello, hello_body);
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, timeout_s))
    throw COMM_FAILURE("connection closed during session handshake",
                       minor_code::connection_lost,
                       CompletionStatus::completed_no);
  if (header.type != MessageType::session_accept)
    throw MARSHAL("unexpected message type in session handshake");
  CdrInputStream in(body, header.byte_order);
  return SessionAccept::decode_body(in);
}

}  // namespace

std::shared_ptr<TcpConnection> TcpConnection::open(
    const std::string& host, std::uint16_t port,
    const TcpClientOptions& options) {
  auto connection = std::shared_ptr<TcpConnection>(
      new TcpConnection(Socket::connect(host, port, options.connect_timeout_s)));
  connection->peer_ = host + ":" + std::to_string(port);
  connection->host_ = host;
  connection->port_ = port;
  connection->options_ = options;
  obs::flight_event(obs::FlightEvent::conn_open, connection->peer_);
  if (options.enable_sessions) {
    const SessionAccept accept = client_handshake(
        connection->socket_, 0, 0, options.connect_timeout_s);
    if (!accept.ok)
      throw COMM_FAILURE("server refused session", minor_code::connect_failed,
                         CompletionStatus::completed_no);
    connection->session_active_ = true;
    connection->session_id_ = accept.session_id;
    connection->retransmit_ =
        std::make_unique<RetransmitBuffer>(options.session_retransmit_limit);
    session_metrics().active.add(1);
  }
  return connection;
}

std::uint64_t TcpConnection::session_id() const {
  std::lock_guard lock(mu_);
  return session_id_;
}

std::size_t TcpConnection::retransmit_buffered() const {
  std::lock_guard lock(mu_);
  return retransmit_ ? retransmit_->size() : 0;
}

bool TcpConnection::session_active() const {
  std::lock_guard lock(mu_);
  return session_active_;
}

TcpConnection::TcpConnection(Socket socket) : socket_(std::move(socket)) {
  touch();
}

TcpConnection::~TcpConnection() { close(); }

void TcpConnection::touch() noexcept {
  last_used_.store(monotonic_seconds(), std::memory_order_relaxed);
}

std::size_t TcpConnection::in_flight() const {
  std::lock_guard lock(mu_);
  return waiters_.size();
}

double TcpConnection::last_used() const {
  return last_used_.load(std::memory_order_relaxed);
}

void TcpConnection::write_frame(const RequestMessage& request) {
  std::lock_guard lock(write_mu_);
  if (!retransmit_) {
    // Sessions off: the original zero-copy scratch path, byte-identical
    // frames.
    FrameBuilder frame = socket_.start_frame(MessageType::request,
                                             request.encoded_size_estimate());
    request.encode_body(frame.body());
    socket_.finish_frame(frame);
    return;
  }
  // Session path: stamp seq/ack, encode into an owned buffer and append it
  // to the retransmit buffer *before* the write — a mid-write connection
  // loss then just leaves the frame for the resume replay.  Holding
  // write_mu_ across assignment and write keeps wire order equal to seq
  // order, which the server's cumulative duplicate check depends on.
  std::vector<std::byte> bytes;
  {
    std::lock_guard state(mu_);
    RequestMessage stamped = request;
    const std::uint64_t seq = next_send_seq_++;
    attach_session_context(stamped, SessionContext{seq, highest_reply_seq_});
    FrameBuilder frame(MessageType::request);
    frame.body().reserve(stamped.encoded_size_estimate());
    stamped.encode_body(frame.body());
    bytes = frame.finish();
    if (retransmit_->full()) overflow_evict_locked();
    retransmit_->append(seq, request.request_id, bytes);
  }
  try {
    socket_.send_bytes(bytes);
  } catch (const Exception&) {
    // The frame is safely buffered: kick the socket so the leader notices
    // the loss and runs the resume protocol; the caller's waiter stays
    // registered and completes through the replay.
    if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
  }
}

void TcpConnection::overflow_evict_locked() {
  auto victim = retransmit_->evict_oldest();
  if (!victim) return;
  session_metrics().overflow_failures.inc();
  if (obs::events_wanted()) {
    obs::publish_event(obs::Topic::session_state, /*host=*/"", /*key=*/peer_,
                       {obs::str_field("state", "overflow"),
                        obs::int_field("session", session_id_),
                        obs::int_field("request", victim->request_id)});
  }
  auto it = waiters_.find(victim->request_id);
  if (it == waiters_.end()) return;  // oneway or already completed
  const std::shared_ptr<Waiter> owner = std::move(it->second);
  waiters_.erase(it);
  abandoned_.insert(victim->request_id);  // its late reply counts as late
  owner->error = std::make_exception_ptr(COMM_FAILURE(
      "session retransmit buffer overflow: oldest in-flight call failed",
      minor_code::session_overflow, CompletionStatus::completed_maybe));
  owner->done.store(true, std::memory_order_release);
  owner->cv.notify_one();
}

std::unique_ptr<PendingReply> TcpConnection::send(const RequestMessage& request,
                                                  double timeout_s) {
  auto waiter = std::make_shared<Waiter>();
  {
    std::lock_guard lock(mu_);
    if (broken_.load(std::memory_order_acquire))
      throw COMM_FAILURE("connection already failed",
                         minor_code::connection_lost,
                         CompletionStatus::completed_no);
    if (!waiters_.empty()) mux_metrics().pipelined.inc();
    waiters_.emplace(request.request_id, waiter);
  }
  mux_metrics().inflight.add(1);
  touch();
  try {
    write_frame(request);
  } catch (...) {
    // Nothing of this request reached the peer coherently; unregister
    // ourselves with COMPLETED_NO and fail the *other* in-flight calls with
    // COMPLETED_MAYBE (their requests were already on the wire).
    {
      std::lock_guard lock(mu_);
      waiters_.erase(request.request_id);
      fail_all_locked(std::make_exception_ptr(
          COMM_FAILURE("connection failed while another request was writing",
                       minor_code::connection_lost,
                       CompletionStatus::completed_maybe)));
    }
    mux_metrics().inflight.add(-1);
    throw COMM_FAILURE("connection lost while sending request",
                       minor_code::connection_lost,
                       CompletionStatus::completed_no);
  }
  return std::make_unique<TcpMuxPendingReply>(
      shared_from_this(), std::move(waiter), request.request_id, timeout_s);
}

void TcpConnection::send_oneway(const RequestMessage& request) {
  if (broken_.load(std::memory_order_acquire))
    throw COMM_FAILURE("connection already failed", minor_code::connection_lost,
                       CompletionStatus::completed_no);
  touch();
  try {
    write_frame(request);
  } catch (...) {
    std::lock_guard lock(mu_);
    fail_all_locked(std::make_exception_ptr(
        COMM_FAILURE("connection failed while another request was writing",
                     minor_code::connection_lost,
                     CompletionStatus::completed_maybe)));
    throw;
  }
}

void TcpConnection::fail_all_locked(const std::exception_ptr& error) {
  // A connection-level failure is a *batched* failure: every in-flight call
  // on this connection sees the same COMM_FAILURE (the FT layer recovers
  // once and re-issues the batch against the new target).
  const bool first = !broken_.exchange(true, std::memory_order_acq_rel);
  const std::size_t victims = waiters_.size();
  if (victims > 0) mux_metrics().batch_failed.inc(victims);
  if (first) obs::flight_event(obs::FlightEvent::conn_close, peer_, victims);
  for (auto& [id, waiter] : waiters_) {
    waiter->error = error;
    waiter->done.store(true, std::memory_order_release);
    waiter->cv.notify_one();
  }
  waiters_.clear();
  abandoned_.clear();
  if (session_active_) {
    session_active_ = false;
    session_metrics().active.add(-1);
  }
  if (retransmit_) retransmit_->ack(UINT64_MAX);  // release the buffered bytes
  // A batch of in-flight calls going down together is the canonical "what
  // just happened" moment — flush the flight recorder to any installed sink.
  if (victims > 1) obs::flight_auto_dump("batched COMM_FAILURE on " + peer_);
}

bool TcpConnection::read_one_locked(
    std::unique_lock<std::mutex>& lock,
    std::chrono::steady_clock::time_point deadline) {
  lock.unlock();
  std::exception_ptr failure;
  ReplyMessage reply;
  bool have_reply = false;
  try {
    MessageHeader header;
    std::vector<std::byte> body;
    if (!socket_.recv_frame(header, body)) {
      failure = std::make_exception_ptr(COMM_FAILURE(
          "server closed connection", minor_code::connection_lost,
          CompletionStatus::completed_maybe));
    } else if (header.type != MessageType::reply) {
      failure = std::make_exception_ptr(
          MARSHAL("unexpected message type in reply stream"));
    } else {
      CdrInputStream in(body, header.byte_order);
      reply = ReplyMessage::decode_body(in);
      have_reply = true;
      touch();
    }
  } catch (const Exception&) {
    failure = std::current_exception();
  }
  lock.lock();
  if (!have_reply) {
    return handle_failure_locked(lock, failure, deadline);
  }
  if (reply.has_session) {
    if (reply.session_seq <= highest_reply_seq_) {
      // A replayed reply we already consumed before the connection cut.
      mux_metrics().discarded.inc();
      mux_metrics().discarded_duplicate.inc();
      return true;
    }
    highest_reply_seq_ = reply.session_seq;
    if (retransmit_) retransmit_->ack(reply.session_ack);  // cumulative
  }
  auto it = waiters_.find(reply.request_id);
  if (it == waiters_.end()) {
    // Late (timed-out/abandoned) or stray reply: ignore it.  Every waiter
    // is completed exactly once.  An abandoned call's entry is reaped here,
    // when its discarded reply finally arrives.
    mux_metrics().discarded.inc();
    if (abandoned_.erase(reply.request_id) > 0)
      mux_metrics().discarded_late.inc();
    else
      mux_metrics().discarded_duplicate.inc();
    return true;
  }
  const std::shared_ptr<Waiter> owner = std::move(it->second);
  waiters_.erase(it);
  owner->reply = std::move(reply);
  owner->done.store(true, std::memory_order_release);
  owner->cv.notify_one();  // wake exactly the caller this reply is for
  return true;
}

bool TcpConnection::handle_failure_locked(
    std::unique_lock<std::mutex>& lock, const std::exception_ptr& failure,
    std::chrono::steady_clock::time_point deadline) {
  if (resume_locked(lock, deadline)) return true;
  if (session_active_) {
    // Resume was tried and lost (attempts budget, caller deadline, or the
    // server rejected the stale session): fire the batched-failure path with
    // a minor code the FT proxy can attribute to an exhausted resume.
    if (obs::events_wanted()) {
      obs::publish_event(obs::Topic::session_state, /*host=*/"",
                         /*key=*/peer_,
                         {obs::str_field("state", "resume_failed"),
                          obs::int_field("session", session_id_)});
    }
    fail_all_locked(std::make_exception_ptr(COMM_FAILURE(
        "session resume failed; falling back to batched failure",
        minor_code::session_resume_failed, CompletionStatus::completed_maybe)));
  } else {
    fail_all_locked(failure);
  }
  return false;
}

bool TcpConnection::resume_locked(
    std::unique_lock<std::mutex>& lock,
    std::chrono::steady_clock::time_point deadline) {
  if (!session_active_ || closing_.load(std::memory_order_acquire))
    return false;
  // Only the leader reaches this point (leader_active_ excludes concurrent
  // resumers and no other thread reads the socket); writers that hit the
  // dead socket meanwhile have already parked their frames in the
  // retransmit buffer, so they are covered by the replay below.
  for (int attempt = 1; attempt <= options_.resume_attempts; ++attempt) {
    if (closing_.load(std::memory_order_acquire)) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    const std::uint64_t session_id = session_id_;
    const std::uint64_t hello_ack = highest_reply_seq_;
    lock.unlock();
    Socket fresh;
    SessionAccept accept;
    bool connected = false;
    try {
      double budget = options_.connect_timeout_s;
      if (deadline != std::chrono::steady_clock::time_point::max()) {
        const double remaining =
            std::chrono::duration<double>(deadline -
                                          std::chrono::steady_clock::now())
                .count();
        if (remaining > 0)
          budget = budget > 0 ? std::min(budget, remaining) : remaining;
      }
      fresh = Socket::connect(host_, port_, budget);
      accept = client_handshake(fresh, session_id, hello_ack, budget);
      connected = true;
    } catch (const Exception&) {
      // Connect refused/timed out or the handshake broke: retry after a
      // pause (below), within the attempts and deadline budgets.
    }
    if (connected && !accept.ok) {
      // The server no longer knows this session (restart, table cull, or a
      // gapped reply buffer): resuming cannot be exactly-once, so give up
      // immediately and let the batched-failure path fire.
      lock.lock();
      session_metrics().resume_failures.inc();
      return false;
    }
    if (connected) {
      // Swap the socket and replay the unacknowledged tail.  Lock order is
      // write_mu_ -> mu_, so mu_ stays dropped until both are taken; no
      // writer can interleave a new frame before the replayed ones.
      bool replay_ok = true;
      std::size_t replayed = 0;
      {
        std::lock_guard writer(write_mu_);
        std::lock_guard state(mu_);
        try {
          for (const SessionFrame* frame :
               retransmit_->after(accept.highest_request_seq)) {
            fresh.send_bytes(frame->bytes);
            ++replayed;
          }
          socket_ = std::move(fresh);
        } catch (const Exception&) {
          replay_ok = false;  // the fresh socket died too: next attempt
        }
      }
      lock.lock();
      if (!replay_ok) continue;
      if (closing_.load(std::memory_order_acquire)) return false;
      session_metrics().resumes.inc();
      if (replayed > 0) session_metrics().retransmitted.inc(replayed);
      obs::flight_event(obs::FlightEvent::session_resume, peer_, session_id_,
                        replayed);
      if (obs::events_wanted()) {
        obs::publish_event(obs::Topic::session_state, /*host=*/"",
                           /*key=*/peer_,
                           {obs::str_field("state", "resumed"),
                            obs::int_field("session", session_id_),
                            obs::int_field("frames", replayed)});
      }
      touch();
      return true;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.resume_backoff_s));
    lock.lock();
  }
  session_metrics().resume_failures.inc();
  return false;
}

bool TcpConnection::lead(std::unique_lock<std::mutex>& lock,
                         const std::shared_ptr<Waiter>& waiter,
                         std::chrono::steady_clock::time_point deadline) {
  while (!waiter->done.load(std::memory_order_acquire)) {
    if (closing_.load(std::memory_order_acquire)) {
      fail_all_locked(std::make_exception_ptr(
          COMM_FAILURE("connection closed", minor_code::connection_lost,
                       CompletionStatus::completed_maybe)));
      return true;
    }
    // Poll in bounded slices so close() and this caller's deadline are
    // honored *between* frames; once data is available, commit to reading
    // the whole frame — abandoning one mid-read would lose stream sync for
    // every other call on the connection.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    int slice_ms = kPollIntervalMs;
    if (deadline != std::chrono::steady_clock::time_point::max()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count();
      slice_ms = static_cast<int>(std::min<long long>(slice_ms,
                                                      std::max<long long>(
                                                          1, remaining)));
    }
    lock.unlock();
    bool readable = false;
    std::exception_ptr failure;
    try {
      readable = socket_.wait_readable(slice_ms);
    } catch (const Exception&) {
      failure = std::current_exception();
    }
    lock.lock();
    if (failure) {
      if (handle_failure_locked(lock, failure, deadline)) continue;
      return true;
    }
    if (readable && !read_one_locked(lock, deadline)) return true;
  }
  return true;
}

void TcpConnection::drain_available_locked(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    lock.unlock();
    bool readable = false;
    std::exception_ptr failure;
    try {
      readable = socket_.wait_readable(0);
    } catch (const Exception&) {
      failure = std::current_exception();
    }
    lock.lock();
    if (failure) {
      handle_failure_locked(lock, failure,
                            std::chrono::steady_clock::time_point::max());
      return;
    }
    if (!readable ||
        !read_one_locked(lock, std::chrono::steady_clock::time_point::max()))
      return;
  }
}

void TcpConnection::promote_follower_locked() {
  for (auto& [id, waiter] : waiters_) {
    if (waiter->blocked) {
      waiter->cv.notify_one();
      return;
    }
  }
}

void TcpConnection::close() {
  closing_.store(true, std::memory_order_release);
  // shutdown() (not close()) aborts an in-progress leader read or sender
  // write without releasing the fd, so neither can race a reused fd; the
  // Socket destructor closes it once the last shared_ptr drops.
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
  std::lock_guard lock(mu_);
  fail_all_locked(std::make_exception_ptr(
      COMM_FAILURE("connection closed", minor_code::connection_lost,
                   CompletionStatus::completed_maybe)));
}

// --- client transport -------------------------------------------------------

TcpClientTransport::~TcpClientTransport() {
  std::map<TargetKey, std::shared_ptr<TcpConnection>> connections;
  {
    std::lock_guard lock(conn_mu_);
    connections.swap(connections_);
  }
  for (auto& [key, connection] : connections) connection->close();
  mux_metrics().connections.add(-static_cast<double>(connections.size()));
}

std::size_t TcpClientTransport::connection_count() const {
  std::lock_guard lock(conn_mu_);
  return connections_.size();
}

std::shared_ptr<TcpConnection> TcpClientTransport::connection_for(
    const IOR& target, bool* fresh) {
  const TargetKey key{target.host, target.port};
  std::vector<std::shared_ptr<TcpConnection>> retired;
  std::shared_ptr<TcpConnection> existing;
  {
    std::lock_guard lock(conn_mu_);
    const double now = monotonic_seconds();
    // Sweep broken and idle-expired connections (health check + idle TTL).
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto& connection = it->second;
      const bool expired = options_.idle_ttl_s > 0 &&
                           connection->in_flight() == 0 &&
                           now - connection->last_used() > options_.idle_ttl_s;
      if (!connection->healthy() || expired) {
        if (connection->healthy()) {
          mux_metrics().idle_closed.inc();
          obs::flight_event(obs::FlightEvent::conn_evict, connection->peer());
        }
        retired.push_back(connection);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto it = connections_.find(key);
    if (it != connections_.end()) {
      existing = it->second;
    } else if (connections_.size() >= options_.max_connections) {
      // Soft socket cap: evict the least-recently-used *idle* connection
      // before opening another.  Busy connections are never culled, so the
      // cap can be exceeded transiently — calls are never failed for lack of
      // a socket.
      auto lru = connections_.end();
      for (auto cand = connections_.begin(); cand != connections_.end(); ++cand)
        if (cand->second->in_flight() == 0 &&
            (lru == connections_.end() ||
             cand->second->last_used() < lru->second->last_used()))
          lru = cand;
      if (lru != connections_.end()) {
        mux_metrics().idle_closed.inc();
        obs::flight_event(obs::FlightEvent::conn_evict, lru->second->peer());
        retired.push_back(lru->second);
        connections_.erase(lru);
      }
    }
  }
  // close() takes the connection's own lock to fail in-flight calls — keep
  // it outside conn_mu_ so other targets' lookups never stall behind it.
  for (auto& dead : retired) dead->close();
  mux_metrics().connections.add(-static_cast<double>(retired.size()));
  if (existing) {
    *fresh = false;
    return existing;
  }

  // Connect without holding conn_mu_ (a slow or dead host must not stall
  // calls to other targets).  If we lose the race with another opener, adopt
  // the connection that won.
  auto opened = TcpConnection::open(target.host, target.port, options_);
  std::shared_ptr<TcpConnection> loser;
  {
    std::lock_guard lock(conn_mu_);
    auto [it, inserted] = connections_.emplace(key, opened);
    if (!inserted) {
      if (it->second->healthy()) {
        loser = std::move(opened);
        *fresh = false;
        opened = it->second;
      } else {
        loser = std::move(it->second);
        it->second = opened;
        *fresh = true;
      }
    } else {
      *fresh = true;
      mux_metrics().connections.add(1);
    }
  }
  if (loser) loser->close();
  return opened;
}

void TcpClientTransport::drop_connection(
    const IOR& target, const std::shared_ptr<TcpConnection>& dead) {
  {
    std::lock_guard lock(conn_mu_);
    auto it = connections_.find({target.host, target.port});
    if (it == connections_.end() || it->second != dead) return;
    connections_.erase(it);
    mux_metrics().connections.add(-1);
  }
  dead->close();
}

std::unique_ptr<PendingReply> TcpClientTransport::send(const IOR& target,
                                                       RequestMessage request) {
  std::string trace_detail;
  if (obs::tracing_enabled())
    trace_detail = request.operation + " -> " + target.host + ":" +
                   std::to_string(target.port);
  obs::Span span("transport.send", trace_detail);
  for (int attempt = 0;; ++attempt) {
    bool fresh = false;
    std::shared_ptr<TcpConnection> connection = connection_for(target, &fresh);
    try {
      if (!request.response_expected) {
        connection->send_oneway(request);
        return std::make_unique<ImmediateReply>(
            ReplyMessage::make_result(request.request_id, {}));
      }
      return connection->send(request, options_.request_timeout_s);
    } catch (const COMM_FAILURE& e) {
      drop_connection(target, connection);
      // A reused connection can turn out stale (server restarted, idle reset)
      // with nothing sent — retry exactly once on a fresh socket.  A fresh
      // connection failing, or anything sent, propagates.
      if (fresh || attempt > 0 || e.completed() != CompletionStatus::completed_no)
        throw;
    }
  }
}

ReplyMessage TcpClientTransport::invoke(const IOR& target,
                                        RequestMessage request) {
  return send(target, std::move(request))->get();
}

// --- server -----------------------------------------------------------------

TcpServerEndpoint::TcpServerEndpoint(const std::string& host,
                                     std::uint16_t port,
                                     TcpServerOptions options)
    : options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw_errno("socket", minor_code::connect_failed,
                CompletionStatus::completed_no);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw COMM_FAILURE("bad listen address '" + host + "'",
                       minor_code::connect_failed,
                       CompletionStatus::completed_no);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind " + host + ":" + std::to_string(port),
                minor_code::connect_failed, CompletionStatus::completed_no);
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("listen", minor_code::connect_failed,
                CompletionStatus::completed_no);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

TcpServerEndpoint::~TcpServerEndpoint() { stop(); }

void TcpServerEndpoint::start(std::shared_ptr<ObjectAdapter> adapter) {
  adapter_ = std::move(adapter);
  reactor_ = std::make_unique<Reactor>(
      listen_fd_, adapter_, sessions_,
      ReactorOptions{options_.io_threads, options_.idle_timeout_s});
  // Back-pressure seam: a full pool makes the reactor stop reading the
  // stalled connections; this callback wakes it once capacity frees up.
  adapter_->dispatch_pool()->set_space_callback(
      [reactor = reactor_.get()] { reactor->notify_pool_space(); });
  reactor_->start();
}

void TcpServerEndpoint::stop() {
  if (stopping_.exchange(true)) return;
  if (reactor_) {
    reactor_->stop();
    adapter_->dispatch_pool()->set_space_callback(nullptr);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace corba
