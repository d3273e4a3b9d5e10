#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/trace.hpp"

namespace obs {

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based; walk the cumulative counts.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * count + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank)
      return i < bounds.size() ? bounds[i]
                               : (bounds.empty() ? 0.0 : bounds.back());
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  if (bounds != other.bounds)
    throw std::invalid_argument("cannot merge histograms with different bounds");
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

const std::vector<double>& default_latency_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 1e3; decade *= 10) {
      b.push_back(decade);
      b.push_back(2 * decade);
      b.push_back(5 * decade);
    }
    return b;
  }();
  return bounds;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end())
    it = slots_.emplace(std::string(name), Slot{}).first;
  Slot& slot = it->second;
  if (slot.gauge || slot.histogram)
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with another kind");
  if (!slot.counter) slot.counter = std::make_unique<Counter>(std::string(name));
  return *slot.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end())
    it = slots_.emplace(std::string(name), Slot{}).first;
  Slot& slot = it->second;
  if (slot.counter || slot.histogram)
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with another kind");
  if (!slot.gauge) slot.gauge = std::make_unique<Gauge>(std::string(name));
  return *slot.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  if (bounds.empty()) bounds = default_latency_bounds();
  std::lock_guard lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end())
    it = slots_.emplace(std::string(name), Slot{}).first;
  Slot& slot = it->second;
  if (slot.counter || slot.gauge)
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with another kind");
  if (!slot.histogram) {
    slot.histogram =
        std::make_unique<Histogram>(std::string(name), std::move(bounds));
  } else if (slot.histogram->bounds() != bounds) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with other bounds");
  }
  return *slot.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot out;
  out.taken_at = now();
  out.entries.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {  // map order == name order
    MetricEntry entry;
    entry.name = name;
    if (slot.counter) {
      entry.kind = MetricEntry::Kind::counter;
      entry.counter_value = slot.counter->value();
    } else if (slot.gauge) {
      entry.kind = MetricEntry::Kind::gauge;
      entry.gauge_value = slot.gauge->value();
    } else if (slot.histogram) {
      entry.kind = MetricEntry::Kind::histogram;
      entry.histogram = slot.histogram->snapshot();
    } else {
      continue;
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, slot] : slots_) {
    if (slot.counter) slot.counter->reset();
    if (slot.gauge) slot.gauge->reset();
    if (slot.histogram) slot.histogram->reset();
  }
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string to_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricEntry& e : snapshot.entries) {
    out += e.name;
    switch (e.kind) {
      case MetricEntry::Kind::counter:
        out += " counter " + std::to_string(e.counter_value);
        break;
      case MetricEntry::Kind::gauge:
        out += " gauge " + format_double(e.gauge_value);
        break;
      case MetricEntry::Kind::histogram:
        out += " histogram count=" + std::to_string(e.histogram.count) +
               " sum=" + format_double(e.histogram.sum) +
               " mean=" + format_double(e.histogram.mean()) +
               " p50=" + format_double(e.histogram.quantile(0.5)) +
               " p99=" + format_double(e.histogram.quantile(0.99));
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace obs
