// Span export: the bridge from the per-process trace sink (obs/trace.hpp)
// onto the `trace.span` topic of the event channel.
//
// A local trace sink sees only its own process's spans, so a cross-host
// question ("where did this slow RPC spend its time?") needs them shipped.
// The SpanExporter installs itself as the process trace sink, head-samples
// by trace id, batches sampled records in a bounded buffer and publishes
// each as one `trace.span` event — which then rides whatever the channel rides:
// virtual-clock delivery under the simulator, the oneway push carrier
// through `_obs/<host>` over TCP.  The consumer half (obs::TraceAssembler)
// stitches the per-host streams back into call trees.
//
// Sampling contract: sampled-or-not is a pure function of the trace id and
// the configured `sample_n` — never of the host, the span or arrival order —
// so every host of a cluster keeps or drops the *same* traces and assembled
// trees are never partial along the sampling axis.  `sample_n` semantics:
// 0 = export nothing, 1 = every trace, n = roughly 1/n of traces (a mixed
// hash of the id modulo n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_channel.hpp"
#include "obs/trace.hpp"

namespace obs {

/// The head-sampling decision: true when a trace with this id is exported
/// under `sample_n`.  Deterministic and host-independent (see above).
bool trace_sampled(std::uint64_t trace_id, std::uint64_t sample_n) noexcept;

/// Encodes one finished span as `trace.span` event fields
/// (name/detail/trace/span/parent/start/end); key = the trace id in the
/// dump's %016llx hex form so coalescing-by-key — were anyone to ask for
/// it — groups per trace.
std::vector<EventField> span_to_fields(const SpanRecord& record);
std::string trace_key(std::uint64_t trace_id);

/// Decodes a `trace.span` event back into the record (fields absent in a
/// malformed event decode as zero/empty; the assembler drops records with
/// no ids rather than throwing mid-stream).
SpanRecord span_from_event(const Event& event);

/// RAII thread-local suppression of span export.  The telemetry push
/// carrier wraps its oneway `push` in one of these: delivering a batch of
/// span events creates rpc/transport spans of its own, and exporting those
/// would feed the channel its own exhaust in a loop.  Suppressed spans
/// still reach the forward sink (a test's local sink keeps seeing everything).
class ExportSuppressScope {
 public:
  ExportSuppressScope() noexcept;
  ~ExportSuppressScope();
  ExportSuppressScope(const ExportSuppressScope&) = delete;
  ExportSuppressScope& operator=(const ExportSuppressScope&) = delete;

  static bool suppressed() noexcept;

 private:
  bool saved_;
};

/// Batching span exporter.  install() makes it the process trace sink;
/// every sampled span is appended to a bounded buffer and the buffer is
/// published (one event per span) when `batch_size` records are pending.
/// Accounting lands in the global registry:
///   obs.trace.spans_observed_total   every span the sink saw
///   obs.trace.spans_unsampled_total  rejected by the head-sampling decision
///   obs.trace.spans_exported_total   published on the channel
///   obs.trace.spans_dropped_total    evicted from a full buffer (a flush
///                                    was already in flight and the bound
///                                    was reached — bounded memory, never
///                                    an unbounded queue)
class SpanExporter {
 public:
  struct Options {
    /// Stamped as the origin host of every published event ("" under the
    /// in-process simulator, whose span substrate is process-wide — the
    /// same quirk metrics.delta has).
    std::string host;
    /// Head-sampling modulus (see trace_sampled); 0 disables the exporter.
    std::uint64_t sample_n = 1;
    /// Pending records that trigger a flush.
    std::size_t batch_size = 64;
    /// Hard buffer bound; beyond it the oldest pending record is dropped
    /// (and counted).  Must be >= batch_size to ever flush on its own.
    std::size_t buffer_limit = 8192;
    /// Optional tee: every span (sampled or not, suppressed or not) is
    /// forwarded here, so installing the exporter does not displace a
    /// sink a test already relies on.
    TraceSink forward;
  };

  explicit SpanExporter(Options options);
  ~SpanExporter();
  SpanExporter(const SpanExporter&) = delete;
  SpanExporter& operator=(const SpanExporter&) = delete;

  /// Installs this exporter as the process trace sink (replacing any other).
  void install();
  /// Flushes, then restores "no sink" iff this exporter still is the sink.
  /// Also called by the destructor.
  void uninstall();

  /// Publishes every pending record now (partial batch included).
  void flush();

  std::uint64_t observed() const noexcept;
  std::uint64_t exported() const noexcept;
  std::uint64_t unsampled() const noexcept;
  std::uint64_t dropped() const noexcept;

 private:
  void sink(const SpanRecord& record);
  void flush_locked(std::unique_lock<std::mutex>& lock);

  Options options_;
  bool installed_ = false;

  mutable std::mutex mu_;
  std::vector<SpanRecord> pending_;
  bool flushing_ = false;  ///< a flush owns the publish loop right now
  std::uint64_t observed_ = 0;
  std::uint64_t exported_ = 0;
  std::uint64_t unsampled_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace obs
