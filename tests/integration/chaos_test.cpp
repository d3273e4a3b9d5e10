// Chaos integration test: the full 30-dim / 3-worker decomposed Rosenbrock
// run under a seeded adversarial fault schedule — random message drops,
// latency spikes, one healing network partition and one workstation crash.
//
// The contract under test is the strongest form of the paper's claim: the
// fault-tolerant run must not merely *survive* the chaos, it must converge
// to exactly the same minimizer as the failure-free run (checkpoint/restore
// plus deterministic reissue preserve the algorithm's state bit-for-bit),
// and the whole ordeal must be reproducible — same fault seed, same event
// trace, same result.  Duplication is deliberately left out of the plan:
// worker solves are stateful, and at-least-once delivery of a state-mutating
// call is exactly what RecoveryPolicy::retry_on_completed_maybe = false is
// for (covered in tests/ft/).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "opt/manager.hpp"
#include "sim/fault_injector.hpp"

namespace opt {
namespace {

constexpr double kHostSpeed = 1e5;

class ChaosTest : public ::testing::Test {
 protected:
  rt::SimRuntime& make_runtime(int hosts = 6, double request_timeout = 0.0) {
    cluster_ = std::make_unique<sim::Cluster>();
    for (int i = 0; i < hosts; ++i)
      cluster_->add_host("node" + std::to_string(i), kHostSpeed);
    rt::RuntimeOptions options;
    options.winner_stale_after = 2.5;
    options.request_timeout = request_timeout;
    runtime_ = std::make_unique<rt::SimRuntime>(*cluster_, options);
    runtime_->events().run_until(0.01);
    return *runtime_;
  }

  static SolverConfig chaos_config(
      bool use_ft,
      ft::CheckpointMode checkpoint_mode = ft::CheckpointMode::full_sync) {
    SolverConfig config;
    config.ft_policy.checkpoint_mode = checkpoint_mode;
    config.dimension = 30;
    config.workers = 3;
    config.worker_iterations = 400;
    config.manager_iterations = 12;
    config.manager_work_per_round = 100.0;
    config.use_ft = use_ft;
    config.ft_policy.max_attempts = 6;
    config.ft_policy.backoff_initial_s = 0.02;
    // Workers are stateful and *exclusively owned* by their proxy: recovery
    // must mint a fresh private instance (factory) rather than adopt a
    // shared offer — re-resolving onto an instance another worker is using
    // would restore this worker's checkpoint over the other's live state.
    config.ft_policy.mode = ft::RecoveryMode::factory;
    config.ft_policy.rebind_new_offer = false;
    config.manager_host = "node5";
    return config;
  }

  /// Drops + spikes + one partition that isolates `partitioned_host` for two
  /// virtual seconds and then heals.
  static sim::FaultPlan chaos_plan(std::uint64_t seed,
                                   const std::string& partitioned_host) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.01;
    plan.latency_spike_probability = 0.02;
    plan.latency_spike_s = 0.05;
    plan.partitions.push_back(
        {.start = 1.0, .heal = 3.0, .group = {partitioned_host}});
    return plan;
  }

  /// Installs the plan with its schedule anchored at the current virtual
  /// time (deployment noise must not shift the fault windows).
  std::shared_ptr<sim::FaultInjector> arm(sim::FaultPlan plan) {
    auto injector = std::make_shared<sim::FaultInjector>(std::move(plan));
    injector->set_origin(runtime_->events().now());
    cluster_->set_fault_injector(injector);
    return injector;
  }

  SolverResult undisturbed_result() {
    rt::SimRuntime& runtime = make_runtime();
    DecomposedSolver solver(runtime, chaos_config(/*use_ft=*/true));
    solver.deploy();
    return solver.run();
  }

  struct ChaosOutcome {
    SolverResult result;
    std::vector<std::string> trace;
  };

  /// One full FT run under chaos seed `seed`: drops + spikes throughout, a
  /// partition around the first-placed worker, a crash of the second.
  ChaosOutcome chaos_run(std::uint64_t seed,
                         ft::CheckpointMode checkpoint_mode =
                             ft::CheckpointMode::full_sync) {
    rt::SimRuntime& runtime = make_runtime();
    DecomposedSolver solver(runtime,
                            chaos_config(/*use_ft=*/true, checkpoint_mode));
    solver.deploy();
    const auto injector = arm(chaos_plan(seed, solver.placements().front()));
    cluster_->crash_host_at(runtime.events().now() + 5.0,
                            solver.placements()[1]);
    ChaosOutcome outcome;
    outcome.result = solver.run();
    outcome.trace = injector->trace();
    return outcome;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<rt::SimRuntime> runtime_;
};

TEST_F(ChaosTest, ConvergesToFailureFreeMinimizerAcrossSeeds) {
  const SolverResult undisturbed = undisturbed_result();
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const ChaosOutcome outcome = chaos_run(seed);
    EXPECT_GE(outcome.result.recoveries, 1u);
    EXPECT_FALSE(outcome.trace.empty());
    EXPECT_EQ(outcome.result.best_value, undisturbed.best_value);
    EXPECT_EQ(outcome.result.best_coupling, undisturbed.best_coupling);
  }
}

TEST_F(ChaosTest, SameSeedReproducesTraceAndResult) {
  const ChaosOutcome first = chaos_run(11);
  const ChaosOutcome second = chaos_run(11);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.result.best_value, second.result.best_value);
  EXPECT_EQ(first.result.virtual_seconds, second.result.virtual_seconds);
  EXPECT_EQ(first.result.recoveries, second.result.recoveries);
  EXPECT_EQ(first.result.worker_calls, second.result.worker_calls);
}

TEST_F(ChaosTest, DeltaAsyncConvergesToFailureFreeMinimizerAcrossSeeds) {
  // The checkpoint pipeline must not weaken the exact-recovery contract:
  // delta encoding changes only how state travels, and the async path is
  // flushed before every restore, so the chaos runs still converge to the
  // failure-free minimizer bit-for-bit.
  const SolverResult undisturbed = undisturbed_result();
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const ChaosOutcome outcome =
        chaos_run(seed, ft::CheckpointMode::delta_async);
    EXPECT_GE(outcome.result.recoveries, 1u);
    EXPECT_FALSE(outcome.trace.empty());
    EXPECT_EQ(outcome.result.best_value, undisturbed.best_value);
    EXPECT_EQ(outcome.result.best_coupling, undisturbed.best_coupling);
  }
}

TEST_F(ChaosTest, DeltaAsyncSameSeedReproducesTraceAndResult) {
  // Async shipping runs as virtual-clock deferred events under the
  // simulator, so even the pipelined runs stay fully deterministic.
  const ChaosOutcome first = chaos_run(23, ft::CheckpointMode::delta_async);
  const ChaosOutcome second = chaos_run(23, ft::CheckpointMode::delta_async);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.result.best_value, second.result.best_value);
  EXPECT_EQ(first.result.virtual_seconds, second.result.virtual_seconds);
  EXPECT_EQ(first.result.recoveries, second.result.recoveries);
  EXPECT_EQ(first.result.worker_calls, second.result.worker_calls);
}

TEST_F(ChaosTest, SameSeedRunsProduceByteIdenticalObservabilityDumps) {
  // The observability layer must obey the same reproducibility contract as
  // the computation itself: spans are stamped from the virtual clock with
  // ids drawn from the runtime's seed, and flight events are ordered by
  // the event queue — so two same-seed chaos runs record identical spans
  // and render byte-identical flight dumps.
  struct ObsDump {
    std::vector<obs::SpanRecord> spans;
    std::string flight;
  };
  auto observed_run = [&](std::uint64_t fault_seed) {
    ObsDump dump;
    std::mutex mu;
    obs::set_trace_sink([&](const obs::SpanRecord& record) {
      std::lock_guard lock(mu);
      dump.spans.push_back(record);
    });
    const ChaosOutcome outcome = chaos_run(fault_seed);
    obs::set_trace_sink(nullptr);
    EXPECT_GE(outcome.result.recoveries, 1u);
    // The always-on flight recorder is cleared per SimRuntime, so its dump
    // covers exactly this run; render before the next run clears it again.
    dump.flight = obs::FlightRecorder::global().to_text();
    return dump;
  };
  const auto has_span = [](const ObsDump& dump, std::string_view name) {
    return std::any_of(dump.spans.begin(), dump.spans.end(),
                       [&](const obs::SpanRecord& r) { return r.name == name; });
  };

  const ObsDump first = observed_run(11);
  const ObsDump second = observed_run(11);
  ASSERT_FALSE(first.spans.empty());
  ASSERT_FALSE(first.flight.empty());
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_EQ(first.flight, second.flight);
  EXPECT_TRUE(has_span(first, "proxy.recover"));
  EXPECT_TRUE(has_span(first, "servant.dispatch"));
  // The flight recorder saw RPC traffic plus the whole recovery story, not
  // just the rebind, without anything having been wired up in advance.
  EXPECT_NE(first.flight.find("rpc_start"), std::string::npos);
  EXPECT_NE(first.flight.find("recovery_step"), std::string::npos);
  EXPECT_NE(first.flight.find(" a=recover b="), std::string::npos);
  EXPECT_NE(first.flight.find(" a=rebound b="), std::string::npos);
}

TEST_F(ChaosTest, PlainModeAbortsUnderChaos) {
  // Without proxies the first dropped message kills the whole computation —
  // the paper's motivating failure.
  rt::SimRuntime& runtime = make_runtime();
  DecomposedSolver solver(runtime, chaos_config(/*use_ft=*/false));
  solver.deploy();
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 0.05;
  arm(plan);
  EXPECT_THROW(solver.run(), corba::COMM_FAILURE);
}

TEST_F(ChaosTest, HealedPartitionRecoveryFitsDeadlineBudget) {
  // A partition cuts off one worker for three virtual seconds.  Under the
  // TCP-retransmit model a reply caught inside the partition is simply held
  // until the heal — the fault only *surfaces* through the request timeout.
  // With a timeout configured, the stalled call raises TIMEOUT, the proxy
  // recovers to a fresh instance, and the whole ordeal (backoff waits
  // included) must fit the per-call deadline budget and still reach the
  // failure-free optimum — well before the partition even heals.
  const SolverResult undisturbed = undisturbed_result();
  rt::SimRuntime& runtime = make_runtime(6, /*request_timeout=*/2.0);
  SolverConfig config = chaos_config(/*use_ft=*/true);
  config.ft_policy.call_deadline_s = 8.0;
  DecomposedSolver solver(runtime, config);
  solver.deploy();
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.partitions.push_back(
      {.start = 1.0, .heal = 4.0, .group = {solver.placements().front()}});
  arm(plan);
  const SolverResult result = solver.run();
  EXPECT_GE(result.recoveries, 1u);
  EXPECT_EQ(result.deadline_exhaustions, 0u);
  EXPECT_EQ(result.best_value, undisturbed.best_value);
  EXPECT_EQ(result.best_coupling, undisturbed.best_coupling);
}

}  // namespace
}  // namespace opt
