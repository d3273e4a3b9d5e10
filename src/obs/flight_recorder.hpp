// Flight recorder: an always-on, allocation-free ring buffer of compact
// runtime events.
//
// Metrics aggregate and spans need a sink installed; the flight recorder
// fills the gap between them — the *last N things that happened*, captured
// unconditionally so a crash report or an auto-dump on the first batched
// COMM_FAILURE carries the preceding RPCs, connection churn and recovery
// steps without anyone having arranged for it in advance.  The design
// constraints:
//
//   * always on: record() is a relaxed fetch_add to claim a slot plus a
//     handful of relaxed atomic stores — no locks, no allocation, no
//     formatting (DESIGN.md §6.8 records its measured overhead).
//   * fixed capacity: a power-of-two ring; old events are overwritten, and
//     a per-slot sequence word (seqlock-per-slot) lets readers detect and
//     skip slots torn by a concurrent writer.  Every slot field is an
//     atomic, so concurrent writers and dumpers are data-race-free (the
//     `tsan` ctest label covers this).
//   * deterministic: timestamps come from obs::now() (virtual under the
//     simulator) and SimRuntime clear()s the global recorder per run, so two
//     same-seed chaos runs render byte-identical dumps.
//
// Auto-dump: the runtime calls flight_auto_dump() at "something is going
// wrong" moments — a batched COMM_FAILURE taking down a connection's
// in-flight calls, a proxy exhausting its retry budget, a quarantine trip.
// With no `flight.event` subscriber that is one counter increment; with one
// (orbtrace --postmortem) the retained ring is published to it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

/// Event vocabulary.  Kept deliberately small and stable: dumps are grepped
/// by humans and diffed byte-for-byte by the determinism tests.  The
/// recovery-class events (recovery_step, quarantine_*, fault_confirmed,
/// checkpoint_drop) are the runtime's only recovery log; they are recorded
/// through flight_report(), which also publishes them live.
enum class FlightEvent : std::uint16_t {
  rpc_start = 1,       ///< subject=operation, a=request id
  rpc_end = 2,         ///< subject=operation, a=request id, b=1 on exception
  recovery_step = 3,   ///< subject=service, a=RecoveryStep, b/detail per step
  quarantine_trip = 4, ///< subject=service, b=1 when re-armed, detail=host
  checkpoint_ship = 5, ///< subject=key, a=version, b=bytes shipped
  dispatch_depth = 6,  ///< subject=operation, a=queued+executing
  conn_open = 7,       ///< subject=host:port
  conn_close = 8,      ///< subject=host:port, a=in-flight calls failed
  conn_evict = 9,      ///< subject=host:port (idle TTL / LRU cull)
  session_resume = 10, ///< subject=host:port, a=session id, b=frames replayed
  delta_fallback = 11, ///< subject=checkpoint key, a=acked base, b=version
  shard_failover = 12, ///< subject=shard label, a=replica index, b=version
  quarantine_release = 13, ///< subject=service, detail=host
  fault_confirmed = 14,    ///< subject=service, detail=host (fault detector)
  checkpoint_drop = 15,    ///< subject=key, a=version, b=attempts
};

std::string_view to_string(FlightEvent type) noexcept;

/// The `a` field of a recovery_step event: one code per step of the proxy's
/// recovery sequence.  `b` and `detail` are zero/empty unless noted.
enum class RecoveryStep : std::uint64_t {
  failure = 1,            ///< call failed; b=attempt, detail=exception name
  recover = 2,            ///< recovery started
  rebound = 3,            ///< b=recoveries so far, detail=new host
  exhausted = 4,          ///< retry budget exhausted; b=attempt
  batched_reissue = 5,    ///< a sibling call already recovered; b=attempt
  resume_fallback = 6,    ///< session resume exhausted; recovery takes over
  deadline_exhausted = 7, ///< call deadline exhausted; b=attempt
  backoff = 8,            ///< b=delay in nanoseconds
  reresolved = 9,         ///< re-resolved to an existing offer
  factory_created = 10,   ///< detail=factory host
  restored = 11,          ///< b=checkpoint version
  recovery_failed = 12,   ///< retrying with the current target
  checkpoint_failed = 13, ///< checkpoint retries spent; relocating
};

/// "<type> <subject> a=<a> b=<b>[ detail=<detail>]" with recovery_step's `a`
/// as its step name: the one rendering of an event's payload, shared by
/// to_text() and orbtrace's postmortem join.
std::string describe_flight_event(std::string_view type,
                                  std::string_view subject, std::uint64_t a,
                                  std::uint64_t b, std::string_view detail);

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two; 4096 compact slots ≈ 384 KiB.
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// Subjects and details longer than this are truncated (3 packed 8-byte
  /// words each).
  static constexpr std::size_t kSubjectCapacity = 24;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder the runtime's call sites write to.
  static FlightRecorder& global();

  /// Appends one event (relaxed atomics only; safe from any thread).
  void record(FlightEvent type, std::string_view subject, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept;

  /// record() with a `detail`, then — when the event channel has
  /// subscribers — publishes the event live on `flight.event` (reason
  /// "live"), with the same fields a later dump_to_events replays for it.
  void report(FlightEvent type, std::string_view subject, std::uint64_t a,
              std::uint64_t b, std::string_view detail) noexcept;

  /// The kill switch exists for overhead measurement (bench) and for tests
  /// that need a quiet recorder; production leaves it on.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Forgets every recorded event (per-run determinism; SimRuntime calls
  /// this on the global recorder at construction).
  void clear() noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events ever recorded (recorded - min(recorded, capacity) of them have
  /// been overwritten).
  std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_acquire);
  }

  /// One decoded event, oldest-first in events()/dumps.
  struct Event {
    double t = 0.0;
    FlightEvent type = FlightEvent::rpc_start;
    std::string subject;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t index = 0;  ///< global event index (0-based, monotonic)
    /// Ambient trace id at record() time; 0 when untraced.  Lets orbtrace
    /// postmortems join flight events to a trace without timestamp guessing.
    std::uint64_t trace_id = 0;
    std::string detail;  ///< host or exception name; empty for most types
  };

  /// Decoded surviving events, oldest to newest.  Slots torn by a concurrent
  /// writer (or already overwritten) are skipped.
  std::vector<Event> events() const;

  /// Deterministic text rendering:
  ///   flight-recorder: <recorded> events recorded, <n> retained (capacity <c>)
  ///   [<t>] #<index> <type> <subject> a=<a> b=<b>[ detail=<detail>]
  std::string to_text() const;

  // --- auto-dump -------------------------------------------------------------
  /// Counts the trigger (obs.flight_recorder.auto_dumps_total) and publishes
  /// the ring on the `flight.event` topic (dump_to_events).
  void auto_dump(std::string_view reason) noexcept;

  /// Publishes every retained ring event on the `flight.event` channel
  /// topic (one event per slot: reason/type/subject/a/b/at/index/trace/
  /// detail fields)
  /// and counts `obs.flight.event_dumps_total`.  No-op without channel
  /// subscribers, and re-entrant calls on one thread collapse (a dump whose
  /// publication overflows a queue would otherwise dump again forever).
  void dump_to_events(std::string_view reason);

  /// Auto-dump triggers observed so far (with or without subscribers).
  std::uint64_t auto_dumps() const noexcept {
    return auto_dumps_.load(std::memory_order_relaxed);
  }

 private:
  // Per-slot seqlock: seq holds the 1-based global event index once the
  // payload stores are published; readers check it before and after reading
  // the payload and skip the slot on any mismatch.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<double> t{0.0};
    std::atomic<std::uint16_t> type{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> trace{0};  ///< ambient trace id (0 untraced)
    std::array<std::atomic<std::uint64_t>, 3> subject{};
    std::array<std::atomic<std::uint64_t>, 3> detail{};
  };

  /// Stores one event stamped `t` into the next slot; returns its index.
  /// `detail` is stored only for the recovery-class types that carry one
  /// (recovery_step, quarantine_*, fault_confirmed), so the rpc hot path
  /// does no extra store.
  std::uint64_t append(double t, FlightEvent type, std::string_view subject,
                       std::uint64_t a, std::uint64_t b, std::uint64_t trace,
                       std::string_view detail) noexcept;

  std::size_t capacity_ = 0;  // power of two
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> auto_dumps_{0};
};

/// Convenience wrappers over the global recorder (the runtime's call sites).
inline void flight_event(FlightEvent type, std::string_view subject,
                         std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
  FlightRecorder::global().record(type, subject, a, b);
}
/// Recovery-class events: recorded on the global ring and published live.
inline void flight_report(FlightEvent type, std::string_view subject,
                          std::uint64_t a = 0, std::uint64_t b = 0,
                          std::string_view detail = {}) noexcept {
  FlightRecorder::global().report(type, subject, a, b, detail);
}
void flight_auto_dump(std::string_view reason) noexcept;

}  // namespace obs
