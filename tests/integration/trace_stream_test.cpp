// Determinism of cross-host trace assembly under chaos: two runs with the
// same seed — same cluster, same fault plan, same crash, same workload —
// must assemble byte-identical call trees and attribution reports from the
// `trace.span` stream.  The exporter batches on the virtual clock, span ids
// restart from the run's seed (obs::set_trace_seed in SimRuntime), and the
// sampling decision is a pure function of the trace id, so the whole
// pipeline inherits the simulator's reproducibility.
//
// The run crashes a worker host mid-solve, so the stream contains traces
// that cross a recovery (`proxy.recover` spans) — and the recovery flight
// events those recoveries publish live carry the same trace id, which is the
// join `orbtrace --postmortem` is built on.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>

#include "obs/event_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_assembler.hpp"
#include "opt/manager.hpp"
#include "sim/fault_injector.hpp"

namespace opt {
namespace {

constexpr double kHostSpeed = 1e5;

struct TraceRun {
  std::string report;           ///< trees + attributions + aggregate table
  std::string joined;           ///< rendered trace-tagged flight events
  bool recovery_joined = false; ///< a proxy.recover trace had joined events
};

TraceRun run_once(std::uint64_t seed) {
  // Absolute counters leak across runs through metrics.delta producers; the
  // registry reset is the standard per-run determinism contract.
  obs::MetricsRegistry::global().reset();

  sim::Cluster cluster;
  for (int i = 0; i < 6; ++i)
    cluster.add_host("node" + std::to_string(i), kHostSpeed);

  rt::RuntimeOptions options;
  options.seed = seed;
  options.winner_stale_after = 2.5;
  options.trace_sample_n = 1;  // export every trace
  rt::SimRuntime runtime(cluster, options);
  runtime.events().run_until(0.01);

  // The consumer half: spans feed an assembler, trace-tagged flight events
  // are kept for the postmortem join.
  obs::TraceAssembler assembler;
  std::string joined;
  std::map<std::uint64_t, bool> joined_by_trace;
  const std::uint64_t sub = obs::EventChannel::global().subscribe(
      {.topics = {obs::Topic::trace_span, obs::Topic::flight_event},
       .queue_limit = 1 << 16},
      [&](std::span<const obs::Event> batch) {
        for (const obs::Event& event : batch) {
          if (event.topic == obs::Topic::trace_span) {
            assembler.add_event(event);
            continue;
          }
          for (const obs::EventField& field : event.fields) {
            if (field.name == "trace" && field.u64 != 0) {
              joined_by_trace[field.u64] = true;
              joined += event.to_line();
              joined += '\n';
            }
          }
        }
      });

  SolverConfig config;
  config.dimension = 12;
  config.workers = 2;
  config.worker_iterations = 150;
  config.manager_iterations = 8;
  config.manager_work_per_round = 100.0;
  config.use_ft = true;
  config.ft_policy.max_attempts = 6;
  config.ft_policy.backoff_initial_s = 0.02;
  config.ft_policy.mode = ft::RecoveryMode::factory;
  config.ft_policy.rebind_new_offer = false;
  config.manager_host = "node5";

  DecomposedSolver solver(runtime, config);
  solver.deploy();

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.01;
  plan.latency_spike_probability = 0.02;
  plan.latency_spike_s = 0.05;
  auto injector = std::make_shared<sim::FaultInjector>(std::move(plan));
  injector->set_origin(runtime.events().now());
  cluster.set_fault_injector(injector);
  // Crash one worker host mid-solve: its proxy recovers, inside a traced
  // solve call.
  cluster.crash_host_at(runtime.events().now() + 2.0,
                        solver.placements().front());

  solver.run();

  cluster.set_fault_injector(nullptr);
  runtime.stop_node_managers();
  runtime.events().run_until(runtime.events().now() + 5.0);
  obs::EventChannel::global().unsubscribe(sub);

  TraceRun out;
  out.joined = std::move(joined);
  std::vector<obs::Attribution> attributions;
  for (const obs::AssembledTrace& trace : assembler.drain_all()) {
    obs::Attribution attribution = obs::attribute_critical_path(trace);
    const std::string tree = obs::render_trace_tree(trace);
    const bool recovered = tree.find("proxy.recover") != std::string::npos;
    if (recovered && joined_by_trace.count(trace.trace_id))
      out.recovery_joined = true;
    out.report += tree;
    out.report += obs::render_attribution(attribution);
    attributions.push_back(std::move(attribution));
  }
  out.report +=
      obs::render_attribution_table(obs::aggregate_attribution(attributions));
  return out;
}

TEST(TraceStreamDeterminism, SameSeedAssemblesByteIdenticalReports) {
  const TraceRun first = run_once(7);
  const TraceRun second = run_once(7);
  ASSERT_FALSE(first.report.empty());
  EXPECT_EQ(first.report, second.report) << "same-seed trace reports diverged";
  EXPECT_EQ(first.joined, second.joined);

  // The stream exercises the taxonomy end to end, including a recovery.
  EXPECT_NE(first.report.find("rpc.client"), std::string::npos);
  EXPECT_NE(first.report.find("servant.dispatch"), std::string::npos);
  EXPECT_NE(first.report.find("proxy.recover"), std::string::npos);
  EXPECT_NE(first.report.find("CATEGORY"), std::string::npos);

  // A trace that crossed the recovery is joinable with the recovery's own
  // flight events by trace id — the postmortem contract.
  EXPECT_TRUE(first.recovery_joined);

  // A different seed shifts chaos timing: the equality above is not vacuous.
  EXPECT_NE(run_once(8).report, first.report);
}

}  // namespace
}  // namespace opt
