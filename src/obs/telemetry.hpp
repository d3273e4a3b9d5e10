// In-band telemetry: a CORBA servant exposing a node's observability state.
//
// Every runtime activates one TelemetryServant per node ORB and binds it
// under the reserved naming path `_obs/<host>` (naming::kObsContextId).
// Operators and tools (tools/orbtop.cpp) then inspect a live cluster over
// the same GIOP-lite wire the application uses — no side channel, no log
// scraping, and it works identically against the simulator and a real TCP
// deployment.  The reserved subtree resolves exact-match only and bypasses
// both Winner ranking and the quarantine offer filter, so a sick node's
// telemetry stays reachable precisely when it matters.
//
// Process-global vs per-node state: metrics, spans and the flight recorder
// are process-wide substrates, so under the in-process simulator every
// node's servant reports the same counters; the per-node columns (host,
// load, report age, dispatch depth) come from the injected callbacks.  In a
// real deployment each node is its own process and everything is per-node.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "naming/naming.hpp"
#include "obs/event_channel.hpp"
#include "obs/publisher.hpp"
#include "orb/object_adapter.hpp"
#include "orb/orb.hpp"
#include "orb/stub.hpp"

namespace obs {

class SpanExporter;

inline constexpr std::string_view kTelemetryRepoId =
    "IDL:corbaft/obs/Telemetry:1.0";
inline constexpr std::string_view kEventConsumerRepoId =
    "IDL:corbaft/obs/EventConsumer:1.0";

// --- push-carrier wire format ------------------------------------------------
// One event is a flat Value sequence:
//   [topic(str), host(str), key(str), t(f64), seq(u64),
//    fields: seq of [name(str), tag("f64"|"u64"|"str"), value]]
// A push batch is one Value: a sequence of event values.  The carrier is the
// normal GIOP-lite transport — the channel delivers a batch by invoking the
// oneway `push` operation on the consumer's EventConsumer servant, so push
// telemetry rides sessions, multiplexing and the reactor like any other call.
corba::Value event_to_value(const Event& event);
Event event_from_value(const corba::Value& value);

/// Consumer-side servant: receives `push` batches and hands the decoded
/// events to `handler` (invoked on the transport's dispatch thread — under
/// the simulator, on the virtual-clock event loop).
class EventConsumerServant final : public corba::Servant {
 public:
  using Handler = std::function<void(std::vector<Event>)>;
  explicit EventConsumerServant(Handler handler);

  std::string_view repo_id() const noexcept override {
    return kEventConsumerRepoId;
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;

 private:
  Handler handler_;
};

/// Flat health summary returned by Telemetry::health() — the one-row-per-
/// host view orbtop renders.  Encoded on the wire as a flat sequence in
/// field order (see to_value()).
struct HealthReport {
  std::string host;
  double now = 0.0;         ///< node's obs::now() when the report was taken
  double report_age = -1.0; ///< seconds since the node's last Winner load
                            ///< report reached the system manager; -1 unknown
  double load_index = -1.0; ///< Winner selection index (lower = better);
                            ///< -1 unknown
  std::uint64_t quarantined = 0; ///< instances currently quarantined
  std::uint64_t dispatch_queue_depth = 0; ///< requests queued + executing
  std::uint64_t rpcs = 0;                 ///< orb.requests_total
  double rpc_p50 = 0.0;  ///< orb.request_latency_s p50 (bucket resolution)
  double rpc_p99 = 0.0;  ///< orb.request_latency_s p99 (bucket resolution)
  std::uint64_t recoveries = 0;       ///< ft.proxy.recoveries_total
  std::uint64_t checkpoints = 0;      ///< ft.pipeline.stores_total
  std::uint64_t checkpoint_bytes = 0; ///< ft.pipeline.bytes_shipped_total
  std::uint64_t flight_recorded = 0;  ///< flight-recorder events ever written
  std::uint64_t auto_dumps = 0;       ///< flight-recorder auto-dump triggers
  std::uint64_t sessions_active = 0;  ///< transport.session.active
  std::uint64_t session_resumes = 0;  ///< transport.session.resumes_total
  /// transport.session.retransmitted_frames_total +
  /// transport.session.replayed_replies_total (both directions of replay)
  std::uint64_t session_retransmits = 0;
  std::uint64_t tcp_connections = 0;  ///< transport.tcp.connections (gauge)

  corba::Value to_value() const;
  static HealthReport from_value(const corba::Value& value);
};

/// Per-node wiring of a TelemetryServant.  Every callback is optional —
/// absent ones report the "unknown" value — so the servant has no hard
/// dependency on Winner, the quarantine or a dispatch pool being present.
struct TelemetryOptions {
  std::string host;
  std::function<double()> report_age{};
  std::function<double()> load_index{};
  std::function<std::uint64_t()> quarantined{};
  std::function<std::uint64_t()> dispatch_queue_depth{};
  /// The node's ORB; the subscribe operation needs it to turn the wire
  /// consumer reference back into an invocable ObjectRef (install_telemetry
  /// fills this in).
  std::weak_ptr<corba::ORB> orb{};
  /// When > 0, the servant runs a wall-clock MetricsDeltaPublisher at this
  /// epoch (seconds) for the node — the TCP-deployment producer.  Simulated
  /// runtimes leave this 0 and drive a virtual-clock publisher instead
  /// (core::RuntimeOptions::metrics_epoch).
  double metrics_epoch = 0.0;
  /// When > 0, the servant installs a SpanExporter publishing finished spans
  /// on `trace.span` at this head-sampling rate (1 = every trace, N = one
  /// trace in N, decided from the trace id so every host keeps or drops the
  /// same traces) — the TCP-deployment producer.  Simulated runtimes leave
  /// this 0 and install a process-wide exporter instead
  /// (core::RuntimeOptions::trace_sample_n).
  std::uint64_t trace_sample_n = 0;
};

/// Servant answering the introspection operations:
///   health()                flat HealthReport sequence
///   subscribe(consumer, topics, queue_limit, policy, interval)
///                           registers `consumer` (an EventConsumer ref) on
///                           the node's event channel; returns the u64
///                           subscription id.  Throws BAD_INV_ORDER when no
///                           channel is bound (callers fall back to polling).
///                           The consumer's stringified IOR is the dedupe
///                           identity, so subscribing through every servant
///                           of a shared-process sim cluster yields one
///                           subscription.
///   unsubscribe(id)         bool: removed
class TelemetryServant final : public corba::Servant {
 public:
  explicit TelemetryServant(TelemetryOptions options);
  ~TelemetryServant() override;

  std::string_view repo_id() const noexcept override { return kTelemetryRepoId; }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;

  HealthReport health() const;

 private:
  corba::Value subscribe(const corba::ValueSeq& args);

  TelemetryOptions options_;
  /// Wall-clock metrics producer (metrics_epoch > 0 deployments).
  std::unique_ptr<MetricsDeltaPublisher> metrics_publisher_;
  /// Span producer (trace_sample_n > 0 deployments).
  std::unique_ptr<SpanExporter> span_exporter_;
};

/// Typed client stub (what orbtop drives).
class TelemetryStub final : public corba::StubBase {
 public:
  TelemetryStub() = default;
  explicit TelemetryStub(corba::ObjectRef ref) : StubBase(std::move(ref)) {}

  HealthReport health() const;

  /// Registers `consumer` on the node's push channel.  `topics` empty = all;
  /// `queue_limit` 0 = channel default; `policy` in {"", "drop_oldest",
  /// "coalesce_by_key"} ("" = per-topic defaults).  Returns the subscription
  /// id; throws corba::BAD_INV_ORDER when the node has no channel bound.
  std::uint64_t subscribe_events(const corba::ObjectRef& consumer,
                                 const std::vector<std::string>& topics = {},
                                 std::uint64_t queue_limit = 0,
                                 const std::string& policy = "",
                                 double delivery_interval = 0.0) const;
  bool unsubscribe_events(std::uint64_t id) const;
};

/// Activates a TelemetryServant on `orb` and binds it under
/// `_obs/<options.host>` in `root` (creating the reserved `_obs` context on
/// first use; rebinding replaces a stale registration after a restart).
/// Returns the servant's reference.
corba::ObjectRef install_telemetry(const std::shared_ptr<corba::ORB>& orb,
                                   naming::NamingContext& root,
                                   TelemetryOptions options);

}  // namespace obs
