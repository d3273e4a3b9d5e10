// Shared scaffolding for the experiment harness: scenario configuration
// (the paper's 30/3 and 100/7 setups), deployment helpers and table
// printing.  Every headline bench builds a fresh simulated NOW per data
// point, so runs are independent and deterministic.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "opt/manager.hpp"
#include "sim/fault_injector.hpp"

namespace bench {

/// Per-bench latency aggregation on the same fixed-bucket obs histogram the
/// runtime instrumentation uses.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::string name,
                           std::vector<double> bounds = obs::default_latency_bounds())
      : histogram_(std::move(name), std::move(bounds)) {}

  void record(double seconds) { histogram_.record(seconds); }
  double mean() const { return histogram_.snapshot().mean(); }

 private:
  obs::Histogram histogram_;
};

/// Simulated workstation speed in work units per virtual second.  The
/// absolute value only fixes the time unit; all comparisons are ratios.
/// (Calibration notes in EXPERIMENTS.md.)
inline constexpr double kHostSpeed = 1e5;

/// One experiment scenario: the paper names them "<dimension>/<workers>".
struct Scenario {
  std::string name;
  int hosts = 10;
  int dimension = 100;
  int workers = 7;
  int worker_iterations = 6000;
  int manager_iterations = 20;
};

/// The paper's two scenarios (§4): 30-dim/3 workers on 6 workstations and
/// 100-dim/7 workers on 10 workstations.
inline Scenario scenario_30_3() {
  return Scenario{"30/3", 6, 30, 3, 3000, 25};
}
inline Scenario scenario_100_7() {
  return Scenario{"100/7", 10, 100, 7, 6000, 20};
}

struct RunSettings {
  naming::ResolveStrategy strategy = naming::ResolveStrategy::winner;
  /// Hosts carrying one compute-bound background process each.
  std::vector<std::string> loaded_hosts;
  bool use_ft = false;
  ft::RecoveryPolicy ft_policy{};
  /// Checkpoint cost model (Table 1 calibration; see EXPERIMENTS.md).
  double work_per_state_byte = 0.0;
  ft::MemoryCheckpointStore::CostModel store_cost{};
  std::uint64_t seed = 1;
  int worker_iterations_override = 0;
  /// Injected workstation crashes (virtual time, host).
  std::vector<std::pair<double, std::string>> crashes;
  /// Deterministic message-level fault schedule, armed after deployment
  /// (scheduled times count from the run's start).
  std::optional<sim::FaultPlan> faults;
  /// Per-request timeout; needed for partition faults to surface (a reply
  /// held by a healing partition otherwise just stalls the caller).
  double request_timeout = 0.0;
};

struct RunOutcome {
  double runtime = 0.0;  ///< virtual seconds
  double best_value = 0.0;
  int rounds = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t retries = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t deadline_exhaustions = 0;
  double backoff_waited_s = 0.0;
  std::vector<std::string> placements;
  // Fault-injection telemetry (zero without a fault plan).
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_blocks = 0;
  std::uint64_t injected_spikes = 0;
};

inline std::string host_name(int i) { return "node" + std::to_string(i); }

/// Runs one complete decomposed optimization on a fresh simulated NOW.
/// Throws corba::COMM_FAILURE if the computation dies (plain mode + crash).
inline RunOutcome run_scenario(const Scenario& scenario,
                               const RunSettings& settings) {
  sim::Cluster cluster;
  for (int i = 0; i < scenario.hosts; ++i)
    cluster.add_host(host_name(i), kHostSpeed);
  // Background load is present from the start (the paper generates it
  // before measuring), so even the very first load reports see it.
  for (const std::string& host : settings.loaded_hosts)
    cluster.set_background_load(host, 1);

  rt::RuntimeOptions options;
  options.naming_strategy = settings.strategy;
  options.seed = settings.seed;
  options.winner_stale_after = 2.5;
  options.checkpoint_cost = settings.store_cost;
  options.infra_speed = kHostSpeed;  // infra workstation is ordinary hardware
  options.request_timeout = settings.request_timeout;
  rt::SimRuntime runtime(cluster, options);

  // Let at least one full reporting round reach the system manager before
  // placement decisions are made.
  runtime.events().run_until(runtime.events().now() + 1.1);

  for (const auto& [when, host] : settings.crashes)
    cluster.crash_host_at(when, host);

  opt::SolverConfig config;
  config.dimension = scenario.dimension;
  config.workers = scenario.workers;
  config.worker_iterations = settings.worker_iterations_override > 0
                                 ? settings.worker_iterations_override
                                 : scenario.worker_iterations;
  config.manager_iterations = scenario.manager_iterations;
  config.seed = settings.seed;
  config.manager_host = host_name(scenario.hosts - 1);
  config.manager_work_per_round = 500.0;
  config.use_ft = settings.use_ft;
  config.ft_policy = settings.ft_policy;
  config.work_per_state_byte = settings.work_per_state_byte;

  opt::DecomposedSolver solver(runtime, config);
  solver.deploy();
  std::shared_ptr<sim::FaultInjector> injector;
  if (settings.faults) {
    injector = std::make_shared<sim::FaultInjector>(*settings.faults);
    injector->set_origin(runtime.events().now());
    cluster.set_fault_injector(injector);
  }
  const opt::SolverResult result = solver.run();

  RunOutcome outcome;
  outcome.runtime = result.virtual_seconds;
  outcome.best_value = result.best_value;
  outcome.rounds = result.rounds;
  outcome.recoveries = result.recoveries;
  outcome.checkpoints = result.checkpoints;
  outcome.retries = result.retries;
  outcome.checkpoint_failures = result.checkpoint_failures;
  outcome.deadline_exhaustions = result.deadline_exhaustions;
  outcome.backoff_waited_s = result.backoff_waited_s;
  outcome.placements = solver.placements();
  if (injector) {
    outcome.injected_drops = injector->drops();
    outcome.injected_blocks = injector->partition_blocks();
    outcome.injected_spikes = injector->latency_spikes();
  }
  return outcome;
}

/// Mean runtime over `trials` random placements of `loaded` background
/// hosts (the paper reports one placement; averaging placements gives the
/// curve its shape without cherry-picking).
inline double mean_runtime_over_placements(const Scenario& scenario,
                                           naming::ResolveStrategy strategy,
                                           int loaded, int trials,
                                           std::uint64_t seed_base) {
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<int> hosts(static_cast<std::size_t>(scenario.hosts));
    std::iota(hosts.begin(), hosts.end(), 0);
    std::mt19937_64 rng(seed_base + static_cast<std::uint64_t>(trial) * 7919);
    std::shuffle(hosts.begin(), hosts.end(), rng);

    RunSettings settings;
    settings.strategy = strategy;
    settings.seed = seed_base + static_cast<std::uint64_t>(trial);
    for (int i = 0; i < loaded; ++i)
      settings.loaded_hosts.push_back(host_name(hosts[static_cast<std::size_t>(i)]));
    total += run_scenario(scenario, settings).runtime;
  }
  return total / trials;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
