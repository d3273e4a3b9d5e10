// Ablation A3: behaviour under injected faults.
//
// Part 1 validates the paper's §1 motivation — "it is obviously crucial to
// provide mechanisms to prevent the whole computation from failing due to a
// single error on the server side": without proxies, one crash aborts the
// entire long-running optimization; with proxies the run completes, paying
// only the recovery and re-execution cost, and (checkpoint semantics)
// returns the same optimization trajectory.
//
// Part 2 goes beyond clean crashes: a deterministic fault matrix — message
// drop rate × healing network partition × retry backoff on/off — run on the
// 30/3 scenario.  Every cell must still converge to the failure-free
// optimum; the runtime and retry columns show what each fault mode costs
// and what backoff buys.
#include "bench_common.hpp"

int main() {
  using namespace bench;

  // ---- Part 1: workstation crashes (100/7, as before) ----------------------
  Scenario crash_scenario = scenario_100_7();
  crash_scenario.manager_iterations = 8;
  crash_scenario.worker_iterations = 8000;

  RunSettings ft_base;
  ft_base.strategy = naming::ResolveStrategy::winner;
  ft_base.use_ft = true;
  ft_base.ft_policy.max_attempts = 6;
  ft_base.work_per_state_byte = 150.0;
  ft_base.store_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};
  const RunOutcome crash_free = run_scenario(crash_scenario, ft_base);

  std::printf(
      "Ablation A3 — runs under injected workstation crashes, %s scenario\n"
      "(virtual seconds; crashes spaced 200s apart starting at t=250).\n\n",
      crash_scenario.name.c_str());
  std::printf("%-10s%16s%16s%12s%14s\n", "crashes", "plain naming",
              "with FT proxy", "recoveries", "same result");
  print_rule(68);

  for (int crashes = 0; crashes <= 3; ++crashes) {
    std::vector<std::pair<double, std::string>> schedule;
    for (int i = 0; i < crashes; ++i)
      schedule.emplace_back(250.0 + 200.0 * i, host_name(i));

    std::string plain_cell;
    try {
      RunSettings plain;
      plain.strategy = naming::ResolveStrategy::winner;
      plain.crashes = schedule;
      const double runtime = run_scenario(crash_scenario, plain).runtime;
      plain_cell = std::to_string(runtime).substr(0, 7);
    } catch (const corba::COMM_FAILURE&) {
      plain_cell = "aborts";
    }

    RunSettings ft = ft_base;
    ft.crashes = schedule;
    const RunOutcome outcome = run_scenario(crash_scenario, ft);
    std::printf("%-10d%16s%16.1f%12llu%14s\n", crashes, plain_cell.c_str(),
                outcome.runtime,
                static_cast<unsigned long long>(outcome.recoveries),
                outcome.best_value == crash_free.best_value ? "yes" : "NO");
  }

  // ---- Part 2: fault matrix (30/3) -----------------------------------------
  // Drops + an optional healing partition around node0.  Workers are
  // stateful and exclusively owned, so recovery mints fresh factory
  // instances; the request timeout lets partition-held replies surface as
  // TIMEOUT instead of stalling until the heal.
  const Scenario matrix_scenario = scenario_30_3();

  RunSettings matrix_base;
  matrix_base.strategy = naming::ResolveStrategy::winner;
  matrix_base.use_ft = true;
  matrix_base.ft_policy.max_attempts = 6;
  matrix_base.ft_policy.mode = ft::RecoveryMode::factory;
  matrix_base.ft_policy.rebind_new_offer = false;
  matrix_base.ft_policy.call_deadline_s = 30.0;
  matrix_base.work_per_state_byte = 150.0;
  matrix_base.store_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};
  matrix_base.request_timeout = 15.0;
  const RunOutcome fault_free = run_scenario(matrix_scenario, matrix_base);

  std::printf(
      "\nFault matrix — %s scenario, drop rate x partition x backoff\n"
      "(partition: node0 cut off for [40s, 70s); timeout %.0fs; deadline "
      "budget %.0fs).\n\n",
      matrix_scenario.name.c_str(), matrix_base.request_timeout,
      matrix_base.ft_policy.call_deadline_s);
  std::printf("%-8s%-11s%-9s%12s%12s%10s%12s%14s\n", "drop", "partition",
              "backoff", "runtime", "recoveries", "retries", "drops",
              "same result");
  print_rule(88);

  for (const double drop_rate : {0.0, 0.005, 0.02}) {
    for (const bool partition : {false, true}) {
      if (drop_rate == 0.0 && !partition) continue;  // = baseline
      for (const bool backoff : {false, true}) {
        RunSettings settings = matrix_base;
        settings.ft_policy.backoff_initial_s = backoff ? 0.05 : 0.0;
        sim::FaultPlan plan;
        plan.seed = 20260806;
        plan.drop_probability = drop_rate;
        if (partition)
          plan.partitions.push_back(
              {.start = 40.0, .heal = 70.0, .group = {host_name(0)}});
        settings.faults = plan;

        const RunOutcome outcome = run_scenario(matrix_scenario, settings);
        std::printf("%-8.3f%-11s%-9s%12.1f%12llu%10llu%12llu%14s\n",
                    drop_rate, partition ? "yes" : "no",
                    backoff ? "on" : "off", outcome.runtime,
                    static_cast<unsigned long long>(outcome.recoveries),
                    static_cast<unsigned long long>(outcome.retries),
                    static_cast<unsigned long long>(outcome.injected_drops),
                    outcome.best_value == fault_free.best_value ? "yes" : "NO");
      }
    }
  }

  std::printf(
      "\nReading: every crash aborts the plain run; the proxied run "
      "completes with\nthe identical optimization result under crashes, "
      "drops and partitions alike,\npaying recovery + re-execution time.\n");
  return 0;
}
