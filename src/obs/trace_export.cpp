#include "obs/trace_export.hpp"

#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"

namespace obs {

namespace {

struct ExportMetrics {
  Counter& observed = MetricsRegistry::global().counter(
      "obs.trace.spans_observed_total");
  Counter& exported = MetricsRegistry::global().counter(
      "obs.trace.spans_exported_total");
  Counter& unsampled = MetricsRegistry::global().counter(
      "obs.trace.spans_unsampled_total");
  Counter& dropped = MetricsRegistry::global().counter(
      "obs.trace.spans_dropped_total");
};

ExportMetrics& export_metrics() {
  static ExportMetrics metrics;
  return metrics;
}

// Same mixer the id stream uses (obs/trace.cpp).  Sampling hashes the id
// once more so `trace_id % n` artifacts of the generator cannot correlate
// with the sampling decision.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

thread_local bool t_export_suppressed = false;

// Identity of the installed exporter: set_trace_sink has no getter, so
// uninstall() checks this before restoring — a successor's sink is never
// torn down by a destructor running late.
SpanExporter* g_installed_exporter = nullptr;
std::mutex g_installed_mu;

const EventField* find_field(const Event& event, std::string_view name) {
  for (const EventField& field : event.fields)
    if (field.name == name) return &field;
  return nullptr;
}

}  // namespace

bool trace_sampled(std::uint64_t trace_id, std::uint64_t sample_n) noexcept {
  if (sample_n == 0) return false;
  if (sample_n == 1) return true;
  return splitmix64(trace_id) % sample_n == 0;
}

std::string trace_key(std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

std::vector<EventField> span_to_fields(const SpanRecord& record) {
  return {str_field("name", record.name),
          str_field("detail", record.detail),
          int_field("trace", record.context.trace_id),
          int_field("span", record.context.span_id),
          int_field("parent", record.context.parent_span_id),
          num_field("start", record.start),
          num_field("end", record.end)};
}

SpanRecord span_from_event(const Event& event) {
  SpanRecord record;
  if (const EventField* f = find_field(event, "name")) record.name = f->str;
  if (const EventField* f = find_field(event, "detail")) record.detail = f->str;
  if (const EventField* f = find_field(event, "trace"))
    record.context.trace_id = f->u64;
  if (const EventField* f = find_field(event, "span"))
    record.context.span_id = f->u64;
  if (const EventField* f = find_field(event, "parent"))
    record.context.parent_span_id = f->u64;
  if (const EventField* f = find_field(event, "start")) record.start = f->f64;
  if (const EventField* f = find_field(event, "end")) record.end = f->f64;
  return record;
}

ExportSuppressScope::ExportSuppressScope() noexcept
    : saved_(t_export_suppressed) {
  t_export_suppressed = true;
}

ExportSuppressScope::~ExportSuppressScope() { t_export_suppressed = saved_; }

bool ExportSuppressScope::suppressed() noexcept { return t_export_suppressed; }

SpanExporter::SpanExporter(Options options) : options_(std::move(options)) {
  if (options_.batch_size < 1) options_.batch_size = 1;
  if (options_.buffer_limit < options_.batch_size)
    options_.buffer_limit = options_.batch_size;
  pending_.reserve(options_.batch_size);
}

SpanExporter::~SpanExporter() { uninstall(); }

void SpanExporter::install() {
  {
    std::lock_guard lock(g_installed_mu);
    g_installed_exporter = this;
  }
  set_trace_sink([this](const SpanRecord& record) { sink(record); });
  installed_ = true;
}

void SpanExporter::uninstall() {
  if (installed_) {
    std::lock_guard lock(g_installed_mu);
    if (g_installed_exporter == this) {
      // Restore the tee'd sink (a displaced local sink keeps working) or
      // turn tracing off; either way this exporter stops receiving spans.
      set_trace_sink(options_.forward);
      g_installed_exporter = nullptr;
    }
    installed_ = false;
  }
  flush();
}

void SpanExporter::sink(const SpanRecord& record) {
  if (options_.forward) options_.forward(record);
  if (options_.sample_n == 0) return;
  if (ExportSuppressScope::suppressed()) return;

  std::unique_lock lock(mu_);
  ++observed_;
  export_metrics().observed.inc();
  if (!trace_sampled(record.context.trace_id, options_.sample_n)) {
    ++unsampled_;
    export_metrics().unsampled.inc();
    return;
  }
  if (pending_.size() >= options_.buffer_limit) {
    // Bounded memory beats completeness: a flush is already in flight (or
    // the channel is being fed faster than it publishes) — evict the oldest
    // pending record and account for it.
    pending_.erase(pending_.begin());
    ++dropped_;
    export_metrics().dropped.inc();
  }
  pending_.push_back(record);
  if (pending_.size() >= options_.batch_size && !flushing_) flush_locked(lock);
}

void SpanExporter::flush() {
  std::unique_lock lock(mu_);
  if (!flushing_) flush_locked(lock);
}

void SpanExporter::flush_locked(std::unique_lock<std::mutex>& lock) {
  flushing_ = true;
  while (!pending_.empty()) {
    std::vector<SpanRecord> batch;
    batch.swap(pending_);
    exported_ += batch.size();
    export_metrics().exported.inc(batch.size());
    // Publish outside the lock: the channel takes its own mutex, and a
    // concurrent span finishing mid-publish must not deadlock against us.
    lock.unlock();
    for (const SpanRecord& record : batch)
      publish_event(Topic::trace_span, options_.host,
                    trace_key(record.context.trace_id),
                    span_to_fields(record));
    lock.lock();
    // Records that arrived while publishing stay buffered unless a full
    // batch accumulated — the loop condition re-checks.
    if (pending_.size() < options_.batch_size) break;
  }
  flushing_ = false;
}

std::uint64_t SpanExporter::observed() const noexcept {
  std::lock_guard lock(mu_);
  return observed_;
}
std::uint64_t SpanExporter::exported() const noexcept {
  std::lock_guard lock(mu_);
  return exported_;
}
std::uint64_t SpanExporter::unsampled() const noexcept {
  std::lock_guard lock(mu_);
  return unsampled_;
}
std::uint64_t SpanExporter::dropped() const noexcept {
  std::lock_guard lock(mu_);
  return dropped_;
}

}  // namespace obs
