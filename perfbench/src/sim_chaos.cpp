// sim_chaos_100_7: the paper's 100-dim / 7-worker scenario in the
// deterministic simulator, fault tolerance on, under a seeded fault plan
// (1 % message drops) plus one crash of a placed host.
//
// Op = one complete fresh experiment: SimRuntime + deploy + solve, with
// experiment seed = workload seed + i, handed out in order to kRunners
// closed-loop threads.  Worker iterations are cut to 200 so
// the virtual-time layers (event queue, simulated transport, runtime) and
// the in-process call path carry the work rather than Complex Box.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "harness.hpp"
#include "opt/manager.hpp"
#include "sim/fault_injector.hpp"

namespace perfbench {
namespace {

constexpr int kWorkerIterations = 200;
constexpr double kDropProbability = 0.01;
constexpr double kCrashAfter = 2.0;       ///< virtual seconds into the solve
constexpr std::uint64_t kWarmupSeed = 1ull << 32;
constexpr double kRequestTimeout = 10.0;  ///< virtual seconds; above any solve on a shared host
/// Closed-loop threads running experiments side by side, so the window
/// averages over several vCPUs of the reference machine (4).  One vCPU is
/// left to the CPU sampler and the OS: in alternating 12 s runs, 4 runners
/// spread 0.18 (ops_per_s) and 0.30 (op_p50_us) over ten seeds against
/// 0.15 and 0.24 for 3.
constexpr int kRunners = 3;

struct Experiment {
  std::uint64_t seed = 0;
  double best = 0.0;
  std::uint64_t recoveries = 0;
  std::uint64_t retries = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t executed = 0;  ///< events the queue ran, set-up included
  std::uint64_t faults = 0;    ///< injected drops + the crash
  double setup_us = 0.0;       ///< SimRuntime construction + deploy()
  double run_us = 0.0;         ///< DecomposedSolver::run()

  bool same_outcome(const Experiment& other) const {
    return std::memcmp(&best, &other.best, sizeof best) == 0 &&
           recoveries == other.recoveries && executed == other.executed;
  }
};

Experiment run_experiment(std::uint64_t seed) {
  const bench::Scenario scenario = bench::scenario_100_7();
  Experiment experiment;
  experiment.seed = seed;
  const auto t0 = Clock::now();
  sim::Cluster cluster;
  for (int i = 0; i < scenario.hosts; ++i)
    cluster.add_host(bench::host_name(i), bench::kHostSpeed);
  rt::RuntimeOptions options;
  options.seed = seed;
  options.winner_stale_after = 2.5;
  options.infra_speed = bench::kHostSpeed;
  options.request_timeout = kRequestTimeout;
  rt::SimRuntime runtime(cluster, options);
  runtime.events().run_until(runtime.events().now() + 1.1);

  opt::SolverConfig config;
  config.dimension = scenario.dimension;
  config.workers = scenario.workers;
  config.worker_iterations = kWorkerIterations;
  config.manager_iterations = scenario.manager_iterations;
  config.seed = seed;
  config.manager_host = bench::host_name(scenario.hosts - 1);
  config.manager_work_per_round = 500.0;
  config.use_ft = true;
  // Workers are stateful and owned by one proxy each: recovery mints a
  // private replacement from a factory rather than adopting a shared offer.
  config.ft_policy.mode = ft::RecoveryMode::factory;
  config.ft_policy.rebind_new_offer = false;
  config.ft_policy.max_attempts = 6;
  config.ft_policy.backoff_initial_s = 0.02;
  opt::DecomposedSolver solver(runtime, config);
  solver.deploy();
  experiment.setup_us = us_since(t0);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = kDropProbability;
  auto injector = std::make_shared<sim::FaultInjector>(plan);
  injector->set_origin(runtime.events().now());
  cluster.set_fault_injector(injector);
  const std::vector<std::string>& placed = solver.placements();
  const auto victim = std::find_if(placed.begin(), placed.end(), [&](const std::string& h) {
    return h != config.manager_host;
  });
  cluster.crash_host_at(runtime.events().now() + kCrashAfter, *victim);

  const auto t1 = Clock::now();
  const opt::SolverResult result = solver.run();
  experiment.run_us = us_since(t1);
  experiment.best = result.best_value;
  experiment.recoveries = result.recoveries;
  experiment.retries = result.retries;
  experiment.checkpoint_failures = result.checkpoint_failures;
  experiment.executed = runtime.events().executed();
  experiment.faults = injector->drops() + 1;
  return experiment;
}

}  // namespace

RunResult run_sim_chaos_100_7(const RunConfig& config) {
  RunResult result;
  std::vector<std::vector<Experiment>> experiments(kRunners);
  std::atomic<std::uint64_t> next_seed{config.seed};
  std::atomic<std::uint64_t> failed{0};
  ThreadErrors errors;
  RegistryReading start, end;  // traced runs only, which run in one part
  for (int r = 0; r < kRunners; ++r)
    result.op_logs.push_back(reserved_log(config.seconds, 1000));
  run_in_parts(
      config, result,
      [&] {
        // Set-up: one warm-up experiment, the same for every workload seed
        // so the set-up time does not vary with the inputs.
        try {
          run_experiment(kWarmupSeed);
        } catch (const corba::Exception& e) {
          result.fail(std::string("warm-up experiment aborted: ") + e.what());
        }
      },
      [&](Clock::time_point window_start, Clock::time_point until) {
        if (config.trace) start = RegistryReading::now();
        std::vector<std::thread> runners;
        for (int r = 0; r < kRunners; ++r)
          runners.emplace_back([&, r] {
            OpLog& log = result.op_logs[static_cast<std::size_t>(r)];
            while (Clock::now() < until) {
              const std::uint64_t seed = next_seed++;
              const auto op0 = Clock::now();
              try {
                experiments[static_cast<std::size_t>(r)].push_back(run_experiment(seed));
                const auto op1 = Clock::now();
                log.push_back({std::chrono::duration<double, std::micro>(op1 - op0).count(),
                               seconds_between(window_start, op1)});
              } catch (const corba::Exception& e) {
                ++failed;
                errors.record("experiment " + std::to_string(seed) + " aborted: " + e.what());
              }
            }
          });
        for (std::thread& runner : runners) runner.join();
        if (config.trace) end = RegistryReading::now();
      },
      [] {});
  result.failed = failed.load();
  result.attempted = result.ops() + result.failed;
  errors.drain_into(result);

  Experiment total;
  const Experiment* first = nullptr;
  std::size_t count = 0;
  for (const std::vector<Experiment>& mine : experiments)
    for (const Experiment& e : mine) {
      ++count;
      if (e.seed == config.seed) first = &e;
      total.recoveries += e.recoveries;
      total.retries += e.retries;
      total.checkpoint_failures += e.checkpoint_failures;
      total.executed += e.executed;
      total.faults += e.faults;
      total.setup_us += e.setup_us;
      total.run_us += e.run_us;
    }
  if (total.recoveries == 0) result.fail("no recovery under chaos");
  // Determinism: the first experiment again must repeat its outcome
  // exactly.  (Tracing only times the experiment from outside, so this also
  // covers traced against untraced.)
  if (first) {
    Experiment again;
    try {
      again = run_experiment(config.seed);
    } catch (const corba::Exception& e) {
      result.fail(std::string("repeat of the first experiment aborted: ") + e.what());
    }
    if (!again.same_outcome(*first))
      result.fail("experiment " + std::to_string(config.seed) +
                  " did not repeat its best value, recoveries and event count");
    else
      result.notes.push_back("experiment " + std::to_string(config.seed) +
                             " repeated: " + std::to_string(again.executed) +
                             " events, " + std::to_string(again.recoveries) +
                             " recoveries");
  }

  const double ops = static_cast<double>(count);
  add_orb_counters(result, start, end, ops);
  if (config.trace && ops > 0) {
    result.layer["core.setup_us"] = total.setup_us / ops;
    result.layer["sim.run_us"] = total.run_us / ops;
    result.layer["sim.events_per_op"] = static_cast<double>(total.executed) / ops;
    result.layer["sim.ns_per_event"] =
        total.executed > 0 ? 1e3 * total.run_us / static_cast<double>(total.executed) : 0.0;
    result.layer["sim.faults_per_op"] = static_cast<double>(total.faults) / ops;
    result.layer["ft.recoveries"] = static_cast<double>(total.recoveries);
    result.layer["ft.retries"] = static_cast<double>(total.retries);
    result.layer["ft.checkpoint_failures"] = static_cast<double>(total.checkpoint_failures);
  }
  return result;
}

}  // namespace perfbench
