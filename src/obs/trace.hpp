// Per-RPC distributed tracing: contexts, spans and the shared clock.
//
// A TraceContext (trace id, span id, parent span id) names one node of a
// call tree.  The ORB carries the ambient context in a service-context slot
// of its message header (orb/message.hpp), so a span opened on the client
// parents the servant-dispatch span on the server — across the in-process,
// simulator and TCP transports alike.
//
// Everything is compiled in but near-zero-cost when no sink is installed:
// Span construction checks one relaxed atomic and does nothing else, and
// the ORB only attaches contexts to messages while tracing is enabled (so
// wire bytes — and therefore simulated timings — are unchanged when off).
//
// Determinism: ids are drawn from a splitmix64 stream over a seeded origin
// and a monotonically increasing allocation counter, and timestamps come
// from the installed clock (the simulator installs its virtual clock).
// Re-seeding via set_trace_seed() also resets the counter, so two same-seed
// runs produce identical span records.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace obs {

// --- shared clock -----------------------------------------------------------

/// Installs the time source used by spans, latency metrics and the recovery
/// timeline (seconds; the simulator installs virtual time).  Returns a token
/// for clear_clock().  Passing a null function restores the default
/// (monotonic wall clock).
std::uint64_t set_clock(std::function<double()> clock);

/// Restores the default clock iff `token` names the currently installed
/// clock — so a destructor never tears down a successor's clock.
void clear_clock(std::uint64_t token);

/// Current time per the installed clock.
double now();

// --- contexts and spans ------------------------------------------------------

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// One finished span, as delivered to the sink.
struct SpanRecord {
  std::string name;    ///< taxonomy name, e.g. "rpc.client" (DESIGN.md)
  std::string detail;  ///< operation / target / free-form annotation
  TraceContext context;
  double start = 0.0;
  double end = 0.0;
  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

using TraceSink = std::function<void(const SpanRecord&)>;

/// Installs (replaces) the process-wide sink; null uninstalls.  The sink is
/// invoked without any internal lock held and must be thread-safe.
void set_trace_sink(TraceSink sink);

/// True while a sink is installed (the Span fast-path check).
bool tracing_enabled() noexcept;

/// Reseeds the id stream and resets its allocation counter (per-run
/// determinism).  Seed 0 is mapped to 1 so ids are never 0 (= invalid).
void set_trace_seed(std::uint64_t seed);

/// Ambient context of the calling thread (invalid when none).
TraceContext current_trace() noexcept;
/// Replaces the ambient context; returns the previous one.  The server-side
/// dispatch path adopts the wire context this way.
TraceContext exchange_current_trace(const TraceContext& context) noexcept;

/// RAII span: when tracing is enabled, construction allocates a child
/// context of the ambient one (or a new root) and makes it ambient;
/// destruction records the span and restores the previous ambient context.
/// When tracing is disabled the whole object is inert.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }
  /// This span's context (invalid when inactive).
  const TraceContext& context() const noexcept { return record_.context; }

 private:
  bool active_ = false;
  SpanRecord record_;
  TraceContext saved_;
};

/// Records an already-timed span (used where the measured interval outlives
/// a scope, e.g. a transport round trip completed by a pending reply).  The
/// span becomes a child of `parent` when valid, else of the ambient context.
void record_span(std::string_view name, std::string_view detail, double start,
                 double end, const TraceContext& parent = {});

}  // namespace obs
