// orbtrace core: cluster-wide trace collection and attribution reporting.
//
// The library half of tools/orbtrace.cpp, kept separate (like orbtop.hpp)
// so the integration tests can drive it against in-process clusters without
// spawning the CLI.  A TraceWatcher subscribes an EventConsumer through
// every `_obs/*` telemetry servant for the `trace.span` and `flight.event`
// topics; spans feed a TraceAssembler, while flight events carrying a
// nonzero trace id — recovery steps published live, and ring replays from
// auto-dumps — are kept, once each, for the recovery-postmortem join ("this
// slow trace crossed a recovery — here is the recovery's own account of it,
// on the same timeline").
//
// The report functions are pure over assembled traces, so same-seed
// simulated runs render byte-identical reports (the determinism contract of
// every renderer in this repo).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "naming/naming.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_assembler.hpp"

namespace obs {

/// A flight event that carried a nonzero trace id — joinable against an
/// assembled trace for postmortems.
struct JoinedEvent {
  double t = 0.0;         ///< the record's own timestamp (`at` field)
  std::uint64_t trace_id = 0;
  std::string text;       ///< describe_flight_event() one-liner
};

/// Subscription-driven trace collector.
class TraceWatcher {
 public:
  struct Options {
    std::size_t queue_limit = 4096;
    TraceAssembler::Options assembler{};
    /// Joined flight events kept at most (oldest dropped).
    std::size_t max_joined = 65536;
  };

  /// Subscribes through every `_obs/*` binding (dedupe by consumer IOR, as
  /// orbtop's PushCollector).  Throws corba::BAD_INV_ORDER when no node
  /// accepted a subscription.  (Two overloads, not `Options options = {}`:
  /// nested default member initializers are late-parsed, see
  /// trace_assembler.hpp.)
  TraceWatcher(std::shared_ptr<corba::ORB> orb, naming::NamingContext& root);
  TraceWatcher(std::shared_ptr<corba::ORB> orb, naming::NamingContext& root,
               Options options);
  ~TraceWatcher();
  TraceWatcher(const TraceWatcher&) = delete;
  TraceWatcher& operator=(const TraceWatcher&) = delete;

  /// Assembled traces the completion heuristic considers fully arrived.
  std::vector<AssembledTrace> drain_complete();
  /// Everything buffered, complete or not (post-collection use).
  std::vector<AssembledTrace> drain_all();

  /// Joined events, sorted by time (stable); trace_id 0 = all of them.
  std::vector<JoinedEvent> joined_events(std::uint64_t trace_id = 0) const;

  std::uint64_t events_received() const;
  std::size_t subscriptions() const noexcept { return subs_.size(); }

 private:
  struct State;

  std::shared_ptr<corba::ORB> orb_;
  std::shared_ptr<State> state_;  ///< shared with the consumer servant
  std::vector<std::pair<TelemetryStub, std::uint64_t>> subs_;
};

// --- reports -----------------------------------------------------------------

/// The `n` slowest traces by root duration, slowest first (ties by trace
/// id); n = 0 keeps every trace (still sorted).
std::vector<AssembledTrace> slowest_traces(std::vector<AssembledTrace> traces,
                                           std::size_t n);

/// Fixed-width leaderboard over slowest_traces output:
///   TRACE  ROOT_OP  SPANS  TOTAL_MS  DOMINANT
std::string render_slowest_table(const std::vector<AssembledTrace>& traces);

/// The full human report: trace count header, slowest-`slowest_n`
/// leaderboard, cluster-wide per-category attribution table, then tree +
/// attribution for each listed trace.
std::string render_trace_report(const std::vector<AssembledTrace>& traces,
                                std::size_t slowest_n);

/// Machine-readable report over the slowest-`slowest_n` traces (0 = all):
///   {"schema_version": 1, "traces": [{"trace_id": "<16-hex>",
///     "root_op": ..., "total_s": X, "dominant": ..., "rootless": B,
///     "spans": [{"name", "detail", "span", "parent", "host", "start",
///                "end", "category", "orphan"}],
///     "attribution": [{"category", "seconds"}],
///     "joined": [{"t", "text"}]}],
///    "aggregate": [{"category", "traces", "total_s", "p50_s", "p99_s",
///                   "share"}]}
std::string traces_to_json(const std::vector<AssembledTrace>& traces,
                           std::size_t slowest_n,
                           const std::vector<JoinedEvent>& joined = {});

/// Postmortem rendering for one trace: its tree and attribution, then the
/// joined flight events (pre-filtered to this trace or not — the
/// renderer filters by id again) merged chronologically with the trace's
/// span boundaries.
std::string render_postmortem(const AssembledTrace& trace,
                              const std::vector<JoinedEvent>& joined);

}  // namespace obs
