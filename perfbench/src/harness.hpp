// Shared machinery of the wall-clock benchmark: run configuration, the
// result every workload returns, exact order statistics, bench-side spans
// and the forwarding wrappers that produce them, and registry counter
// deltas.
//
// Spans are recorded from the benchmark's own code only: a forwarding
// corba::Servant times dispatch() on the server side, decorators time the
// interfaces the benchmark hands to the runtime, and the workloads time
// their own client calls.  Nothing inside src/ is instrumented for this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ft/checkpoint_store.hpp"
#include "naming/naming.hpp"
#include "orb/orb.hpp"
#include "orb/object_adapter.hpp"
#include "winner/load_info.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// What one invocation of the benchmark asks a workload to do.
struct RunConfig {
  std::uint64_t seed = 1;
  /// Length of the timed window.  A workload whose op is long finishes the
  /// op in flight, so the window can overrun by at most one op.
  double seconds = 10.0;
  /// Install the bench-side wrappers and record spans.
  bool trace = false;
  /// Parts the window is run in, each on a fresh set-up (run_in_parts);
  /// setup_s reports the set-ups' lower quartile.
  int setups = 10;
  /// Length of the slices the window is cut into for the end-to-end
  /// statistics; the CPU sampler marks each slice boundary.
  double slice_s = 0.5;
  /// Busy-wait added to every naming-servant dispatch (sensitivity check).
  double naming_stall_us = 0.0;
};

/// One completed op of the timed window.
struct OpSample {
  double us = 0.0;     ///< wall latency
  float end_s = 0.0f;  ///< completion, in seconds since the window opened
};
using OpLog = std::vector<OpSample>;

/// An op log with room for `seconds` at `max_rate` ops/s.  The reservation
/// is never touched beyond what is written, so it costs no resident memory
/// and appends never copy (which would inflate the peak RSS reading).
OpLog reserved_log(double seconds, double max_rate);

inline float seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<float>(to - from).count();
}

/// Process CPU time at one instant of the window.
struct CpuMark {
  double t_s = 0.0;    ///< seconds since the window opened
  double cpu_s = 0.0;  ///< process user+sys CPU seconds so far
};

/// What one workload run measured.
struct RunResult {
  std::vector<double> setup_s;  ///< one entry per set-up
  /// Raw samples of every op completed in the window, one log per caller
  /// thread (kept apart so reading peak RSS precedes any merge copy).
  std::vector<OpLog> op_logs;
  /// CPU at every slice boundary of the window, the opening one first.
  /// Consecutive marks bound the slices the end-to-end statistics use.
  std::vector<CpuMark> cpu_marks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Per-layer metrics (traced runs), by BENCHMARK.json name.
  std::map<std::string, double> layer;
  /// Lines printed above the result (checks passed, notable counts).
  std::vector<std::string> notes;

  void fail(std::string what) { errors.push_back(std::move(what)); }
  std::size_t ops() const {
    std::size_t n = 0;
    for (const OpLog& log : op_logs) n += log.size();
    return n;
  }
};

/// An ORB with the default OrbConfig plus a TCP endpoint on loopback.
std::shared_ptr<corba::ORB> tcp_orb(const std::string& endpoint_name);

// --- exact statistics -------------------------------------------------------

/// Nearest-rank quantile of an ascending vector (q in [0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile of `n` samples.
std::size_t beyond_rank(std::size_t n, double q);

/// Linearly interpolated q-quantile of `values` (q in [0, 1]), as
/// numpy's default method computes it.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Mean latency over every sample of `logs`.
double mean_us(const std::vector<OpLog>& logs);

// --- process counters -------------------------------------------------------

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();
/// Peak resident set of this process in MiB, less the op logs' bytes (the
/// benchmark's own storage, which grows with the op count).
double peak_rss_mib(const std::vector<OpLog>& op_logs);

// --- running a workload's window ----------------------------------------------

/// Marks process CPU time at every slice boundary of one part of a window,
/// from a thread of its own that sleeps in between.  Mark times count from
/// `window_start`; the part begins at `part_start`.
class CpuSampler {
 public:
  CpuSampler(Clock::time_point window_start, Clock::time_point part_start,
             double slice_s);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Stops sampling, adds a closing mark and returns every mark.
  std::vector<CpuMark> finish();

 private:
  void stop();

  Clock::time_point window_start_;
  std::vector<CpuMark> marks_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

/// Runs a workload's timed window as config.setups equal parts, each on a
/// fresh set-up.  For each part, `setup()` builds and warms the workload and
/// is timed into setup_s; `ops(window_start, end)` runs ops until `end`,
/// timing each op's completion from `window_start`; `after()` checks and
/// tears down, outside every clock.  window_start lies before the part's
/// start by the earlier parts' length, so the op times and CPU marks of all
/// parts share one time axis from which the set-ups are cut out.
///
/// Why parts: the reference machine is 4 vCPUs of a shared host, and which
/// vCPUs a topology's threads settle on (and how fast those run) is drawn
/// once per set-up and can hold for the whole window.  Fresh set-ups spread
/// over the run redraw it, so both the set-up times and the slices sample
/// the host's states instead of one draw.
template <class Setup, class Ops, class After>
void run_in_parts(const RunConfig& config, RunResult& result, Setup&& setup,
                  Ops&& ops, After&& after) {
  const auto share = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds / config.setups));
  Clock::duration elapsed{};
  for (int s = 0; s < config.setups; ++s) {
    const auto t0 = Clock::now();
    setup();
    result.setup_s.push_back(seconds_since(t0));
    const auto start = Clock::now();
    CpuSampler cpu(start - elapsed, start, config.slice_s);
    ops(start - elapsed, start + share);
    for (const CpuMark& mark : cpu.finish()) result.cpu_marks.push_back(mark);
    elapsed += Clock::now() - start;
    after();
  }
}

// --- bench-side spans ---------------------------------------------------------

/// Thread-safe accumulator of span durations (µs) by name.  Sums and counts
/// only: per-layer figures are means, because means of nested spans can be
/// subtracted to give self time and medians cannot.
class Spans {
 public:
  void add(std::string_view name, double us);
  double mean_us(std::string_view name) const;
  std::uint64_t count(std::string_view name) const;
  void clear();

 private:
  struct Acc {
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Acc, std::less<>> acc_;
};

/// Busy-waits `us` microseconds (a deterministic stall: sleeping would
/// round up to the scheduler's granularity).
void spin_for_us(double us);

/// Forwarding servant: times the inner servant's dispatch() per operation
/// and reports it to `on_exec`, after an optional fixed stall.  The
/// traced run activates one in front of every servant the benchmark owns.
class TimedServant final : public corba::Servant {
 public:
  using ExecHook = std::function<void(std::string_view op, double us)>;

  TimedServant(std::shared_ptr<corba::Servant> inner, ExecHook on_exec,
               double stall_us = 0.0)
      : inner_(std::move(inner)),
        on_exec_(std::move(on_exec)),
        stall_us_(stall_us) {}

  std::string_view repo_id() const noexcept override {
    return inner_->repo_id();
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;

 private:
  std::shared_ptr<corba::Servant> inner_;
  ExecHook on_exec_;
  double stall_us_;
};

/// Decorator timing the store writes a proxy's checkpoint pipeline makes.
class TimedStore final : public ft::CheckpointStoreClient {
 public:
  TimedStore(std::shared_ptr<ft::CheckpointStoreClient> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override;
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override;
  std::optional<ft::Checkpoint> load(const std::string& key) override {
    return inner_->load(key);
  }
  void remove(const std::string& key) override { inner_->remove(key); }
  std::vector<std::string> keys() override { return inner_->keys(); }
  std::uint64_t head_version(const std::string& key) override {
    return inner_->head_version(key);
  }
  ft::CheckpointLog fetch_log(const std::string& key,
                              std::uint64_t since) override {
    return inner_->fetch_log(key, since);
  }

 private:
  std::shared_ptr<ft::CheckpointStoreClient> inner_;
  Spans& spans_;
};

/// Decorator timing the Winner calls the naming servant makes per resolve.
/// Forwards load_epoch(), so the naming rank cache behaves as undecorated.
class TimedLoadInfo final : public winner::LoadInformationService {
 public:
  TimedLoadInfo(std::shared_ptr<winner::LoadInformationService> inner,
                Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void register_host(const std::string& name, double speed_index) override {
    inner_->register_host(name, speed_index);
  }
  void report_load(const std::string& name,
                   const winner::LoadSample& sample) override {
    inner_->report_load(name, sample);
  }
  std::string best_host(std::span<const std::string> candidates) override {
    return inner_->best_host(candidates);
  }
  std::vector<std::string> rank_hosts(
      std::span<const std::string> candidates) override;
  void notify_placement(const std::string& host) override;
  double host_index(const std::string& name) override {
    return inner_->host_index(name);
  }
  double host_speed(const std::string& name) override {
    return inner_->host_speed(name);
  }
  std::vector<std::string> known_hosts() override {
    return inner_->known_hosts();
  }
  std::uint64_t load_epoch() override { return inner_->load_epoch(); }

 private:
  std::shared_ptr<winner::LoadInformationService> inner_;
  Spans& spans_;
};

/// Decorator timing the naming calls a proxy makes (only on recovery, so
/// its span count doubles as a recovery witness on the TCP workloads).
class TimedNaming final : public naming::NamingContext {
 public:
  TimedNaming(std::shared_ptr<naming::NamingContext> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void bind(const naming::Name& name, const corba::ObjectRef& obj) override {
    inner_->bind(name, obj);
  }
  void rebind(const naming::Name& name, const corba::ObjectRef& obj) override {
    inner_->rebind(name, obj);
  }
  corba::ObjectRef resolve(const naming::Name& name) override;
  void unbind(const naming::Name& name) override { inner_->unbind(name); }
  corba::ObjectRef bind_new_context(const naming::Name& name) override {
    return inner_->bind_new_context(name);
  }
  std::vector<naming::Binding> list() override { return inner_->list(); }
  void bind_offer(const naming::Name& name, const corba::ObjectRef& obj,
                  const std::string& host) override {
    inner_->bind_offer(name, obj, host);
  }
  void unbind_offer(const naming::Name& name,
                    const std::string& host) override {
    inner_->unbind_offer(name, host);
  }
  std::vector<naming::Offer> list_offers(const naming::Name& name) override {
    return inner_->list_offers(name);
  }
  corba::ObjectRef resolve_with(const naming::Name& name,
                                naming::ResolveStrategy strategy) override;

 private:
  std::shared_ptr<naming::NamingContext> inner_;
  Spans& spans_;
};

// --- runtime registry deltas ----------------------------------------------------

/// Counter values and histogram (count, sum) pairs of the process-wide
/// MetricsRegistry at one instant; subtract two to get a window's delta.
class RegistryReading {
 public:
  static RegistryReading now();

  /// Counter delta since `earlier` (0 when the counter never registered).
  std::uint64_t counter_delta(const RegistryReading& earlier,
                              std::string_view name) const;
  /// Mean of the observations a histogram gained since `earlier`, in the
  /// histogram's own unit (0 when none).
  double histogram_mean_delta(const RegistryReading& earlier,
                              std::string_view name) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::pair<std::uint64_t, double>, std::less<>> hists_;
};

/// Per-op and ratio metrics every TCP workload derives from the registry.
void add_orb_counters(RunResult& result, const RegistryReading& start,
                      const RegistryReading& end, double ops);

/// Guard a closed-loop worker thread with: records the first exception a
/// thread's body throws so the main thread can report it.
class ThreadErrors {
 public:
  void record(std::string what);
  void drain_into(RunResult& result);

 private:
  std::mutex mu_;
  std::vector<std::string> errors_;
};

// --- workloads -----------------------------------------------------------------

RunResult run_mdo_30_3(const RunConfig& config);
RunResult run_ckpt_delta_64k(const RunConfig& config);
RunResult run_resolve_churn(const RunConfig& config);
RunResult run_sim_chaos_100_7(const RunConfig& config);

}  // namespace perfbench
