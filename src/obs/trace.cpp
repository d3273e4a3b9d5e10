#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

namespace obs {

namespace {

// --- clock ------------------------------------------------------------------

struct ClockState {
  std::mutex mu;
  std::function<double()> clock;  // null => default monotonic clock
  std::uint64_t token = 0;
};

ClockState& clock_state() {
  static ClockState state;
  return state;
}

std::atomic<bool> g_clock_installed{false};

double default_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

// --- sink + id stream --------------------------------------------------------

std::atomic<bool> g_tracing{false};
std::mutex g_sink_mu;
std::shared_ptr<const TraceSink> g_sink;  // copied out under the lock

// splitmix64 over (origin ^ counter): well-mixed, seedable, and cheap.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::atomic<std::uint64_t> g_id_origin{1};
std::atomic<std::uint64_t> g_id_counter{0};

std::uint64_t next_id() noexcept {
  const std::uint64_t n = g_id_counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id =
      splitmix64(g_id_origin.load(std::memory_order_relaxed) ^ n);
  return id ? id : 1;  // 0 means "invalid"; remap the (rare) zero draw
}

thread_local TraceContext t_current;

void deliver(const SpanRecord& record) {
  std::shared_ptr<const TraceSink> sink;
  {
    std::lock_guard lock(g_sink_mu);
    sink = g_sink;
  }
  if (sink && *sink) (*sink)(record);
}

}  // namespace

std::uint64_t set_clock(std::function<double()> clock) {
  ClockState& state = clock_state();
  std::lock_guard lock(state.mu);
  state.clock = std::move(clock);
  g_clock_installed.store(static_cast<bool>(state.clock),
                          std::memory_order_release);
  return ++state.token;
}

void clear_clock(std::uint64_t token) {
  ClockState& state = clock_state();
  std::lock_guard lock(state.mu);
  if (state.token != token) return;  // someone else installed since
  state.clock = nullptr;
  g_clock_installed.store(false, std::memory_order_release);
}

double now() {
  if (!g_clock_installed.load(std::memory_order_acquire)) return default_now();
  ClockState& state = clock_state();
  std::function<double()> clock;
  {
    std::lock_guard lock(state.mu);
    clock = state.clock;
  }
  return clock ? clock() : default_now();
}

void set_trace_sink(TraceSink sink) {
  std::lock_guard lock(g_sink_mu);
  if (sink) {
    g_sink = std::make_shared<const TraceSink>(std::move(sink));
    g_tracing.store(true, std::memory_order_release);
  } else {
    g_sink = nullptr;
    g_tracing.store(false, std::memory_order_release);
  }
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_trace_seed(std::uint64_t seed) {
  g_id_origin.store(seed ? seed : 1, std::memory_order_relaxed);
  g_id_counter.store(0, std::memory_order_relaxed);
}

TraceContext current_trace() noexcept { return t_current; }

TraceContext exchange_current_trace(const TraceContext& context) noexcept {
  return std::exchange(t_current, context);
}

Span::Span(std::string_view name, std::string_view detail) {
  if (!tracing_enabled()) return;
  active_ = true;
  record_.name = name;
  record_.detail = detail;
  saved_ = t_current;
  record_.context.trace_id = saved_.valid() ? saved_.trace_id : next_id();
  record_.context.span_id = next_id();
  record_.context.parent_span_id = saved_.span_id;
  record_.start = now();
  t_current = record_.context;
}

Span::~Span() {
  if (!active_) return;
  t_current = saved_;
  record_.end = now();
  deliver(record_);
}

void record_span(std::string_view name, std::string_view detail, double start,
                 double end, const TraceContext& parent) {
  if (!tracing_enabled()) return;
  SpanRecord record;
  record.name = name;
  record.detail = detail;
  const TraceContext base = parent.valid() ? parent : t_current;
  record.context.trace_id = base.valid() ? base.trace_id : next_id();
  record.context.span_id = next_id();
  record.context.parent_span_id = base.span_id;
  record.start = start;
  record.end = end;
  deliver(record);
}

}  // namespace obs
