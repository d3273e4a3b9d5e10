#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"

namespace perfbench {

std::shared_ptr<corba::ORB> tcp_orb(const std::string& endpoint_name) {
  corba::OrbConfig config;
  config.endpoint_name = endpoint_name;
  config.enable_tcp = true;
  return corba::ORB::init(std::move(config));
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // Nearest rank: the smallest sample with at least q of all samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::size_t beyond_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

OpLog reserved_log(double seconds, double max_rate) {
  OpLog log;
  log.reserve(static_cast<std::size_t>(seconds * max_rate) + 1024);
  return log;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double mean_us(const std::vector<OpLog>& logs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const OpLog& log : logs)
    for (const OpSample& sample : log) {
      sum += sample.us;
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

CpuSampler::CpuSampler(Clock::time_point window_start,
                       Clock::time_point part_start, double slice_s)
    : window_start_(window_start) {
  marks_.push_back({seconds_since(window_start_), process_cpu_seconds()});
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(slice_s));
  thread_ = std::thread([this, slice, part_start] {
    std::unique_lock lock(mu_);
    for (auto due = part_start + slice;; due += slice) {
      if (wake_.wait_until(lock, due, [this] { return stopping_; })) return;
      marks_.push_back({seconds_since(window_start_), process_cpu_seconds()});
    }
  });
}

CpuSampler::~CpuSampler() { stop(); }

void CpuSampler::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<CpuMark> CpuSampler::finish() {
  stop();
  marks_.push_back({seconds_since(window_start_), process_cpu_seconds()});
  return marks_;
}

double peak_rss_mib(const std::vector<OpLog>& op_logs) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB
  for (const OpLog& log : op_logs)
    bytes -= static_cast<double>(log.size() * sizeof(OpSample));
  return bytes / (1024.0 * 1024.0);
}

void Spans::add(std::string_view name, double us) {
  std::lock_guard lock(mu_);
  auto it = acc_.find(name);
  if (it == acc_.end()) it = acc_.emplace(std::string(name), Acc{}).first;
  it->second.sum += us;
  ++it->second.count;
}

double Spans::mean_us(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = acc_.find(name);
  if (it == acc_.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

std::uint64_t Spans::count(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second.count;
}

void Spans::clear() {
  std::lock_guard lock(mu_);
  acc_.clear();
}

void spin_for_us(double us) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(us));
  while (Clock::now() < until) {
  }
}

corba::Value TimedServant::dispatch(std::string_view op,
                                    const corba::ValueSeq& args) {
  const auto t0 = Clock::now();
  if (stall_us_ > 0.0) spin_for_us(stall_us_);
  corba::Value result = inner_->dispatch(op, args);
  if (on_exec_) on_exec_(op, us_since(t0));
  return result;
}

void TimedStore::store(const std::string& key, std::uint64_t version,
                       const corba::Blob& state) {
  const auto t0 = Clock::now();
  inner_->store(key, version, state);
  spans_.add("client.store", us_since(t0));
}

void TimedStore::store_delta(const std::string& key, std::uint64_t base_version,
                             std::uint64_t version, const corba::Blob& delta) {
  const auto t0 = Clock::now();
  inner_->store_delta(key, base_version, version, delta);
  spans_.add("client.store", us_since(t0));
}

std::vector<std::string> TimedLoadInfo::rank_hosts(
    std::span<const std::string> candidates) {
  const auto t0 = Clock::now();
  std::vector<std::string> ranked = inner_->rank_hosts(candidates);
  spans_.add("winner.rank", us_since(t0));
  return ranked;
}

void TimedLoadInfo::notify_placement(const std::string& host) {
  const auto t0 = Clock::now();
  inner_->notify_placement(host);
  spans_.add("winner.notify", us_since(t0));
}

corba::ObjectRef TimedNaming::resolve(const naming::Name& name) {
  const auto t0 = Clock::now();
  corba::ObjectRef ref = inner_->resolve(name);
  spans_.add("client.proxy_resolve", us_since(t0));
  return ref;
}

corba::ObjectRef TimedNaming::resolve_with(const naming::Name& name,
                                           naming::ResolveStrategy strategy) {
  const auto t0 = Clock::now();
  corba::ObjectRef ref = inner_->resolve_with(name, strategy);
  spans_.add("client.proxy_resolve", us_since(t0));
  return ref;
}

RegistryReading RegistryReading::now() {
  RegistryReading reading;
  for (const obs::MetricEntry& entry :
       obs::MetricsRegistry::global().snapshot().entries) {
    if (entry.kind == obs::MetricEntry::Kind::counter)
      reading.counters_.emplace(entry.name, entry.counter_value);
    else if (entry.kind == obs::MetricEntry::Kind::histogram)
      reading.hists_.emplace(entry.name, std::pair{entry.histogram.count,
                                                   entry.histogram.sum});
  }
  return reading;
}

std::uint64_t RegistryReading::counter_delta(const RegistryReading& earlier,
                                             std::string_view name) const {
  const auto now_it = counters_.find(name);
  if (now_it == counters_.end()) return 0;
  const auto then_it = earlier.counters_.find(name);
  const std::uint64_t then = then_it == earlier.counters_.end() ? 0 : then_it->second;
  return now_it->second - then;
}

double RegistryReading::histogram_mean_delta(const RegistryReading& earlier,
                                             std::string_view name) const {
  const auto now_it = hists_.find(name);
  if (now_it == hists_.end()) return 0.0;
  std::pair<std::uint64_t, double> then{0, 0.0};
  if (const auto it = earlier.hists_.find(name); it != earlier.hists_.end())
    then = it->second;
  const std::uint64_t count = now_it->second.first - then.first;
  return count == 0 ? 0.0
                    : (now_it->second.second - then.second) / static_cast<double>(count);
}

void add_orb_counters(RunResult& result, const RegistryReading& start,
                      const RegistryReading& end, double ops) {
  const auto per_op = [&](std::string_view counter) {
    return ops > 0 ? static_cast<double>(end.counter_delta(start, counter)) / ops
                   : 0.0;
  };
  const auto ratio = [&](std::string_view num, std::string_view den) {
    const double d = static_cast<double>(end.counter_delta(start, den));
    return d > 0 ? static_cast<double>(end.counter_delta(start, num)) / d : 0.0;
  };
  result.layer["orb.requests_per_op"] = per_op("orb.requests_total");
  result.layer["orb.dispatches_per_op"] = per_op("orb.dispatches_total");
  result.layer["orb.pipelined_ratio"] =
      ratio("transport.tcp.pipelined_total", "orb.requests_total");
  result.layer["orb.queue_wait_us"] =
      1e6 * end.histogram_mean_delta(start, "orb.dispatch_pool.queue_wait_s");
  result.layer["orb.reactor_lag_us"] =
      1e6 * end.histogram_mean_delta(start, "transport.tcp.reactor.loop_lag_s");
  result.layer["naming.resolves_per_op"] = per_op("naming.resolves_total");
  const double hits = static_cast<double>(
      end.counter_delta(start, "naming.rank_cache_hits_total"));
  const double misses = static_cast<double>(
      end.counter_delta(start, "naming.rank_cache_misses_total"));
  result.layer["naming.rank_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  result.layer["ft.bytes_shipped_per_op"] = per_op("ft.pipeline.bytes_shipped_total");
  result.layer["ft.delta_ratio"] =
      ratio("ft.pipeline.delta_stores_total", "ft.pipeline.stores_total");
  result.layer["ft.recoveries"] =
      static_cast<double>(end.counter_delta(start, "ft.proxy.recoveries_total"));
  result.layer["ft.retries"] =
      static_cast<double>(end.counter_delta(start, "ft.proxy.retries_total"));
  result.layer["ft.checkpoint_failures"] =
      static_cast<double>(end.counter_delta(start, "ft.pipeline.failures_total"));
}

void ThreadErrors::record(std::string what) {
  std::lock_guard lock(mu_);
  errors_.push_back(std::move(what));
}

void ThreadErrors::drain_into(RunResult& result) {
  std::lock_guard lock(mu_);
  for (std::string& error : errors_) result.fail(std::move(error));
  errors_.clear();
}

}  // namespace perfbench
