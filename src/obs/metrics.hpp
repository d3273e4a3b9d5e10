// Metrics registry: lock-cheap counters, gauges and fixed-bucket histograms.
//
// The paper's evaluation is about *measuring* where time goes — naming
// resolution, proxy interception, checkpoint store/restore, recovery — so
// the runtime needs an instrumentation substrate whose hot path costs
// nothing worth mentioning.  The design follows the usual production
// pattern: handles are pre-registered once (a mutex-protected get-or-create
// at component start-up) and the per-event path is a single relaxed atomic
// add on the handle — no map lookups, no allocation, no formatting.
// Exporters are pull-based: snapshot() copies the current values under no
// lock but with stable, name-sorted ordering, and to_text() renders the
// snapshot; with no exporter installed nothing beyond the atomic adds ever
// happens.
//
// Naming scheme (see DESIGN.md "Observability"): dotted lowercase
// `<layer>.<metric>` with a unit suffix where one applies, e.g.
// `orb.requests_total`, `orb.request_latency_s`, `ft.proxy.recoveries_total`,
// `winner.report_age_max_s`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

/// Adds `v` to an atomic double (fetch_add for doubles is C++20 but not
/// lock-free everywhere; the CAS loop is portable and contention is rare).
inline void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { atomic_add(value_, v); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit +inf overflow bucket, so there are bounds.size() + 1
/// buckets.  record() is a binary search over a handful of doubles plus
/// three relaxed atomic adds; the bounds are immutable after construction,
/// so no locking is ever needed.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v) noexcept;

  const std::string& name() const noexcept { return name_; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

  /// Point-in-time copy, mergeable and queryable without the source.
  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;

    double mean() const noexcept { return count ? sum / count : 0.0; }
    /// Bucket-resolution quantile estimate: the upper bound of the bucket
    /// holding the q-th sample (the overflow bucket reports the last finite
    /// bound).  q outside [0, 1] is clamped.
    double quantile(double q) const noexcept;
    /// Adds another snapshot's samples; throws std::invalid_argument when
    /// the bucket boundaries differ (merging is only meaningful between
    /// histograms of one registration).
    void merge(const Snapshot& other);
  };
  Snapshot snapshot() const;

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket boundaries: a 1-2-5 ladder from 1 microsecond to
/// 100 seconds — wide enough for both wall-clock micro paths and virtual
/// recovery ordeals.
const std::vector<double>& default_latency_bounds();

/// One exported metric, tagged by kind.
struct MetricEntry {
  enum class Kind { counter, gauge, histogram };
  std::string name;
  Kind kind = Kind::counter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  Histogram::Snapshot histogram;
};

struct MetricsSnapshot {
  std::vector<MetricEntry> entries;  ///< sorted by name (stable exports)
  /// obs::now() at snapshot time (monotonic; virtual under the simulator).
  /// Readers compute rates from (counter delta) / (taken_at delta) between
  /// successive snapshots.
  double taken_at = 0.0;
};

/// Owner of all metric handles.  Registration is mutex-protected and meant
/// for start-up; handles have stable addresses for the registry's lifetime
/// (reset() zeroes values in place and never invalidates a handle).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the runtime's instrumentation reports to.
  static MetricsRegistry& global();

  /// Get-or-create.  Throws corba-free std::invalid_argument when a name is
  /// already registered under a different kind (or, for histograms,
  /// different bounds).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric in place (per-run determinism in tests/benches).
  void reset();

 private:
  struct Slot {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot, std::less<>> slots_;
};

/// Human-readable exporter: one `name kind value` line per metric.
std::string to_text(const MetricsSnapshot& snapshot);

}  // namespace obs
