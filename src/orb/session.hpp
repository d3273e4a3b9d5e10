// Resumable-session bookkeeping shared by the TCP client and server.
//
// A session outlives the TCP connection that carries it: each side keeps a
// bounded retransmit buffer of the frames it has sent but the peer has not
// yet acknowledged (acks piggyback on normal traffic and are cumulative).
// When a connection drops, the client reconnects to the *same* endpoint with
// its session id, the two sides exchange highest-received sequence numbers,
// and only the missing tail of frames is replayed — in-flight calls then
// complete exactly-once without waking the fault-tolerance layer.  The
// buffers here are deliberately lock-free of their own: the owner serializes
// access (TcpConnection's mutexes on the client, the per-session mutex on
// the server).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"

namespace corba {

class ReactorConn;

/// Session-layer counters and gauges (shared by the real TCP transport and
/// the deterministic simulator mirror).
struct SessionMetrics {
  obs::Counter& resumes = obs::MetricsRegistry::global().counter(
      "transport.session.resumes_total");
  obs::Counter& resume_failures = obs::MetricsRegistry::global().counter(
      "transport.session.resume_failures_total");
  obs::Counter& retransmitted = obs::MetricsRegistry::global().counter(
      "transport.session.retransmitted_frames_total");
  obs::Counter& replayed_replies = obs::MetricsRegistry::global().counter(
      "transport.session.replayed_replies_total");
  obs::Counter& duplicates_suppressed = obs::MetricsRegistry::global().counter(
      "transport.session.duplicates_suppressed_total");
  obs::Counter& overflow_failures = obs::MetricsRegistry::global().counter(
      "transport.session.overflow_failures_total");
  obs::Gauge& active =
      obs::MetricsRegistry::global().gauge("transport.session.active");
  obs::Gauge& buffered_bytes = obs::MetricsRegistry::global().gauge(
      "transport.session.retransmit_buffer_bytes");
};

SessionMetrics& session_metrics();

/// One unacknowledged frame held for possible retransmission.  `bytes` is
/// the full encoded frame (header included) so replay is a raw write.
struct SessionFrame {
  std::uint64_t seq = 0;
  std::uint64_t request_id = 0;  ///< 0 for reply frames
  std::vector<std::byte> bytes;
};

/// Bounded deque of unacknowledged frames, evicted by cumulative ack.  Not
/// thread-safe — the owner serializes access.
class RetransmitBuffer {
 public:
  explicit RetransmitBuffer(std::size_t limit) : limit_(limit) {}
  ~RetransmitBuffer() { release_gauge(); }

  RetransmitBuffer(const RetransmitBuffer&) = delete;
  RetransmitBuffer& operator=(const RetransmitBuffer&) = delete;

  std::size_t size() const noexcept { return frames_.size(); }
  bool empty() const noexcept { return frames_.empty(); }
  std::size_t limit() const noexcept { return limit_; }
  std::size_t bytes() const noexcept { return bytes_; }
  /// True when append() would exceed the hard cap.
  bool full() const noexcept { return frames_.size() >= limit_; }

  void append(std::uint64_t seq, std::uint64_t request_id,
              std::vector<std::byte> bytes);

  /// Cumulative ack: drops every frame with seq <= ack.  Returns how many
  /// frames were evicted.
  std::size_t ack(std::uint64_t ack_seq);

  /// Pops the oldest frame (the overflow victim).
  std::optional<SessionFrame> evict_oldest();

  /// Frames with seq > peer_highest, oldest first (the replay set after a
  /// resume handshake).  Pointers are valid until the next mutation.
  std::vector<const SessionFrame*> after(std::uint64_t peer_highest) const;

 private:
  void release_gauge() noexcept;

  std::deque<SessionFrame> frames_;
  std::size_t limit_;
  std::size_t bytes_ = 0;
};

/// Server-side session state, owned by the endpoint's SessionTable and
/// adopted by whichever connection last presented the session's hello.
struct ServerSession {
  explicit ServerSession(std::uint64_t session_id, std::size_t reply_limit)
      : id(session_id), replies(reply_limit) {}

  const std::uint64_t id;
  std::mutex mu;  ///< guards everything below
  /// Highest request seq received (cumulative: in-order per connection
  /// epoch, and replay restarts from here).
  std::uint64_t highest_request_seq = 0;
  std::uint64_t next_reply_seq = 1;
  RetransmitBuffer replies;
  /// True once an *unacknowledged* reply was evicted on overflow: the replay
  /// set has a hole, so a resume against this session must be rejected.
  bool gapped = false;
  /// The reactor connection currently carrying this session.  Updated on
  /// every hello, so completions route replies to the resumed socket.
  std::weak_ptr<ReactorConn> carrier;
};

/// Endpoint-wide session registry.  Sessions survive connection loss; they
/// die with the endpoint (a restarted server therefore rejects old ids —
/// the stale-session path that falls back to batched failure).
class SessionTable {
 public:
  explicit SessionTable(std::size_t reply_limit, std::size_t max_sessions = 256)
      : reply_limit_(reply_limit), max_sessions_(max_sessions) {}

  std::shared_ptr<ServerSession> create();
  std::shared_ptr<ServerSession> find(std::uint64_t id) const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::size_t reply_limit_;
  std::size_t max_sessions_;
  /// Ordered by id == creation order, so cap eviction drops the oldest.
  std::map<std::uint64_t, std::shared_ptr<ServerSession>> sessions_;
};

}  // namespace corba
