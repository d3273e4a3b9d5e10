// Table 1 reproduction: runtimes of the 100-dimensional / 7-worker
// decomposed Rosenbrock optimization with and without fault-tolerance
// proxies, for a growing number of worker iterations (the algorithm's
// stopping criterion and hence the per-call work).
//
// Expected shape (paper §4): the checkpoint overhead is constant per method
// call (fetch state + store it in the unoptimized checkpoint service), so
// the relative slowdown falls as calls get longer; in the worst case the
// proxied run costs more than 3x the plain run.
//
// Beyond the paper's table this bench measures the checkpoint pipeline:
//   * a checkpoint-mode axis (full-sync / delta-sync / delta-async) over the
//     scenario at a fixed iteration count, and
//   * a synthetic per-call-overhead point — 64 KiB service state, ~10% of
//     chunks dirtied per call — isolating the shipping cost from the
//     optimization workload.
#include "bench_common.hpp"

#include "ft/checkpoint.hpp"
#include "sim/work_meter.hpp"

namespace {

using namespace bench;

/// Synthetic checkpointable service: an opaque state blob of fixed size; each
/// touch() call dirties a deterministic rotating subset of the delta chunks
/// and performs a small fixed amount of simulated work.
class DirtyBlobServant final : public corba::Servant,
                               public ft::CheckpointableServant {
 public:
  DirtyBlobServant(std::size_t state_bytes, double dirty_fraction,
                   std::uint32_t chunk_size, double work_per_call)
      : state_(state_bytes, std::byte{0}),
        chunk_size_(chunk_size),
        work_per_call_(work_per_call) {
    const std::size_t chunks = (state_bytes + chunk_size - 1) / chunk_size;
    dirty_per_call_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(dirty_fraction *
                                        static_cast<double>(chunks) +
                                    0.5));
  }

  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/bench/DirtyBlob:1.0";
  }

  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (auto handled = try_dispatch_state(op, args)) return *handled;
    if (op == "touch") {
      check_arity(op, args, 0);
      sim::WorkMeter::charge(work_per_call_);
      const std::size_t chunks =
          (state_.size() + chunk_size_ - 1) / chunk_size_;
      for (std::size_t j = 0; j < dirty_per_call_; ++j) {
        const std::size_t chunk = (calls_ * dirty_per_call_ + j) % chunks;
        auto& byte = state_[chunk * chunk_size_];
        byte = std::byte{static_cast<unsigned char>(std::to_integer<int>(byte) + 1)};
      }
      ++calls_;
      return corba::Value(static_cast<std::int64_t>(calls_));
    }
    throw corba::BAD_OPERATION(std::string(op));
  }

  corba::Blob get_state() override { return state_; }
  void set_state(const corba::Blob& state) override { state_ = state; }

 private:
  corba::Blob state_;
  std::uint32_t chunk_size_;
  double work_per_call_;
  std::size_t dirty_per_call_ = 1;
  std::size_t calls_ = 0;
};

struct SyntheticPoint {
  double per_call_s = 0.0;  ///< virtual seconds per touch() call
  std::uint64_t bytes_shipped = 0;
};

/// Measures the per-call cost of `calls` touch() invocations through a
/// fault-tolerance proxy on a fresh two-workstation simulated NOW.  With no
/// mode the proxy checkpoints nothing (the baseline the overhead is taken
/// against); otherwise it checkpoints after every call in the given mode.
SyntheticPoint run_synthetic(std::optional<ft::CheckpointMode> mode,
                             std::size_t state_bytes, double dirty_fraction,
                             int calls) {
  constexpr double kWorkPerCall = 2e4;  // 0.2 virtual seconds per call

  sim::Cluster cluster;
  cluster.add_host("node0", kHostSpeed);
  cluster.add_host("node1", kHostSpeed);

  rt::RuntimeOptions options;
  options.winner_stale_after = 2.5;
  options.infra_speed = kHostSpeed;
  // Same "not optimized for speed" storage cost model as the paper table;
  // the store bills the bytes actually shipped, which is where the delta
  // modes win.
  options.checkpoint_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};
  rt::SimRuntime runtime(cluster, options);
  runtime.events().run_until(runtime.events().now() + 1.1);

  ft::RecoveryPolicy policy;
  policy.checkpoint_every = mode ? 1 : 0;
  if (mode) policy.checkpoint_mode = *mode;

  const naming::Name name = naming::Name::parse("BenchDirtyBlob");
  const corba::ObjectRef ref = runtime.deploy(
      "node0",
      std::make_shared<DirtyBlobServant>(state_bytes, dirty_fraction,
                                         policy.delta_chunk_size, kWorkPerCall),
      name);
  ft::ProxyEngine engine(
      runtime.make_proxy_config(name, "DirtyBlob", "dirty-blob", policy, ref));

  // Warm-up call outside the timed window: the delta modes anchor their
  // chain with one unavoidable full store, which is a start-up cost, not
  // part of the steady-state per-call overhead being measured.
  engine.call("touch", {});
  if (ft::CheckpointPipeline* pipeline = engine.checkpoint_pipeline())
    pipeline->flush();

  // per_call_s is elapsed/calls, the final flush included.
  const double start = runtime.events().now();
  for (int i = 0; i < calls; ++i) engine.call("touch", {});
  if (ft::CheckpointPipeline* pipeline = engine.checkpoint_pipeline())
    pipeline->flush();
  const double elapsed = runtime.events().now() - start;

  SyntheticPoint point;
  point.per_call_s = elapsed / calls;
  if (ft::CheckpointPipeline* pipeline = engine.checkpoint_pipeline())
    point.bytes_shipped = pipeline->bytes_shipped();
  return point;
}

}  // namespace

int main() {
  // --- paper table: overhead vs per-call work (full-sync, as in §4) ---------
  Scenario scenario = scenario_100_7();
  scenario.manager_iterations = 6;

  std::printf(
      "Table 1 — Runtimes for a 100-dimensional Rosenbrock function with 7 "
      "worker\nproblems and a varying number of worker iterations "
      "(virtual seconds).\n\n");
  std::printf("%12s  %18s  %18s  %12s\n", "Iterations", "Runtime w/o proxy",
              "Runtime w/ proxy", "Overhead [%]");
  print_rule(66);

  double worst_factor = 0.0;
  double previous_overhead = 1e300;
  bool monotone = true;
  for (int iterations : {10000, 20000, 30000, 40000, 50000}) {
    RunSettings plain;
    plain.strategy = naming::ResolveStrategy::winner;
    plain.worker_iterations_override = iterations;
    const RunOutcome base = run_scenario(scenario, plain);

    RunSettings ft = plain;
    ft.use_ft = true;
    // The paper's checkpoint storage "has not been optimized for speed in
    // any way"; the cost model is calibrated so the worst case exceeds 3x
    // (see EXPERIMENTS.md).
    ft.work_per_state_byte = 150.0;
    ft.store_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};
    const RunOutcome proxied = run_scenario(scenario, ft);

    const double overhead =
        100.0 * (proxied.runtime - base.runtime) / base.runtime;
    std::printf("%12d  %18.1f  %18.1f  %12.1f\n", iterations, base.runtime,
                proxied.runtime, overhead);
    worst_factor = std::max(worst_factor, proxied.runtime / base.runtime);
    if (overhead > previous_overhead) monotone = false;
    previous_overhead = overhead;

    // Sanity: fault tolerance must not change the computation's result.
    if (proxied.best_value != base.best_value)
      std::printf("  WARNING: proxied result differs from plain result!\n");
  }

  std::printf(
      "\nworst-case slowdown: %.2fx (paper: \"more than three times\")\n",
      worst_factor);
  std::printf(
      "relative overhead falls as per-call work grows: %s (paper: \"the\n"
      "relative slowdown is lower the more time is spent in the called "
      "method\")\n",
      monotone ? "yes" : "NO");

  // --- checkpoint-mode axis over the scenario -------------------------------
  const int axis_iterations = 20000;
  RunSettings axis_plain;
  axis_plain.strategy = naming::ResolveStrategy::winner;
  axis_plain.worker_iterations_override = axis_iterations;
  const RunOutcome axis_base = run_scenario(scenario, axis_plain);

  std::printf("\nCheckpoint-mode axis (%d worker iterations):\n\n",
              axis_iterations);
  std::printf("%12s  %12s  %12s  %12s\n", "Mode", "Runtime", "Overhead [%]",
              "Checkpoints");
  print_rule(54);
  std::printf("%12s  %12.1f  %12s  %12s\n", "none", axis_base.runtime, "-",
              "-");

  const ft::CheckpointMode kModes[] = {ft::CheckpointMode::full_sync,
                                       ft::CheckpointMode::delta_sync,
                                       ft::CheckpointMode::delta_async};
  for (ft::CheckpointMode mode : kModes) {
    RunSettings ft_run = axis_plain;
    ft_run.use_ft = true;
    ft_run.work_per_state_byte = 150.0;
    ft_run.store_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};
    ft_run.ft_policy.checkpoint_mode = mode;
    const RunOutcome outcome = run_scenario(scenario, ft_run);
    const double overhead =
        100.0 * (outcome.runtime - axis_base.runtime) / axis_base.runtime;
    const std::string mode_name(ft::to_string(mode));
    std::printf("%12s  %12.1f  %12.1f  %12llu\n", mode_name.c_str(),
                outcome.runtime, overhead,
                static_cast<unsigned long long>(outcome.checkpoints));
    if (outcome.best_value != axis_base.best_value)
      std::printf("  WARNING: %s result differs from plain result!\n",
                  mode_name.c_str());
  }

  // --- synthetic per-call overhead: 64 KiB state, ~10% dirty ----------------
  const std::size_t state_bytes = 64 * 1024;
  const double dirty_fraction = 0.10;
  const int calls = 32;

  const SyntheticPoint base_point =
      run_synthetic(std::nullopt, state_bytes, dirty_fraction, calls);

  std::printf(
      "\nSynthetic per-call checkpoint overhead (64 KiB state, ~10%% of "
      "chunks\ndirtied per call, virtual seconds):\n\n");
  std::printf("%12s  %14s  %14s  %14s\n", "Mode", "Per call [s]",
              "Overhead [s]", "Bytes shipped");
  print_rule(60);
  std::printf("%12s  %14.3f  %14s  %14s\n", "none", base_point.per_call_s, "-",
              "-");

  double full_sync_overhead = 0.0;
  double delta_async_overhead = 0.0;
  for (ft::CheckpointMode mode : kModes) {
    const SyntheticPoint point =
        run_synthetic(mode, state_bytes, dirty_fraction, calls);
    const double overhead = point.per_call_s - base_point.per_call_s;
    if (mode == ft::CheckpointMode::full_sync) full_sync_overhead = overhead;
    if (mode == ft::CheckpointMode::delta_async)
      delta_async_overhead = overhead;
    const std::string mode_name(ft::to_string(mode));
    std::printf("%12s  %14.3f  %14.3f  %14llu\n", mode_name.c_str(),
                point.per_call_s, overhead,
                static_cast<unsigned long long>(point.bytes_shipped));
  }

  const double ratio = delta_async_overhead > 0.0
                           ? full_sync_overhead / delta_async_overhead
                           : 0.0;
  std::printf(
      "\ndelta-async per-call overhead is %.1fx lower than full-sync "
      "(target: >= 5x): %s\n",
      ratio, ratio >= 5.0 ? "ok" : "MISSED");
  return 0;
}
