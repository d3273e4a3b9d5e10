#include "opt/worker.hpp"

#include "sim/work_meter.hpp"

namespace opt {

namespace {

/// splitmix64 — derives independent per-call seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1) + 0x85ebca6bull * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

OptWorkerServant::OptWorkerServant(WorkerProblem problem)
    : problem_(problem),
      decomposition_(Decomposition::make(problem.dimension, problem.blocks)),
      lower_(static_cast<std::size_t>(problem.dimension), problem.lower),
      upper_(static_cast<std::size_t>(problem.dimension), problem.upper) {}

SolveOutcome OptWorkerServant::solve(int block_index,
                                     std::span<const double> coupling,
                                     int iterations) {
  if (block_index < 0 || block_index >= decomposition_.block_count())
    throw corba::BAD_PARAM("block index out of range");
  if (iterations <= 0) throw corba::BAD_PARAM("iterations must be positive");
  if (static_cast<int>(coupling.size()) != decomposition_.coupling_dimension())
    throw corba::BAD_PARAM("coupling vector has wrong dimension");

  std::lock_guard lock(mu_);
  const Block& block = decomposition_.block(block_index);
  const std::size_t dim = static_cast<std::size_t>(block.dimension);
  const double eval_work =
      problem_.work_per_eval_per_dim * static_cast<double>(block.dimension);

  coupling_scratch_.assign(coupling.begin(), coupling.end());
  std::int64_t extra_evaluations = 0;
  const Objective objective = [&](std::span<const double> x) {
    sim::WorkMeter::charge(eval_work);
    return decomposition_.block_objective(block, x, coupling_scratch_);
  };

  BoxState& state = block_states_[block_index];
  if (state.initialized()) {
    // Warm start: the coupling values (and hence the objective) moved since
    // the complex was stored, so every retained point must be re-valued.
    for (std::size_t p = 0; p < state.size(); ++p) {
      state.values[p] = objective(state.point(p));
      ++extra_evaluations;
    }
  }

  BoxOptions options;
  options.max_iterations = iterations;
  options.seed = mix_seed(problem_.seed, static_cast<std::uint64_t>(block_index),
                          static_cast<std::uint64_t>(calls_));
  const BoxResult result =
      complex_box(objective, std::span(lower_).first(dim),
                  std::span(upper_).first(dim), options, &state);

  ++calls_;
  return SolveOutcome{result.best_value, result.evaluations + extra_evaluations};
}

std::int64_t OptWorkerServant::total_evaluations() const {
  std::lock_guard lock(mu_);
  std::int64_t total = 0;
  for (const auto& [block, state] : block_states_)
    total += state.total_evaluations;
  return total;
}

std::int64_t OptWorkerServant::calls() const {
  std::lock_guard lock(mu_);
  return calls_;
}

corba::Blob OptWorkerServant::get_state() {
  std::lock_guard lock(mu_);
  corba::CdrOutputStream out;
  out.write_u32(1);  // format version
  out.write_i64(calls_);
  out.write_u32(static_cast<std::uint32_t>(block_states_.size()));
  for (const auto& [block, state] : block_states_) {
    out.write_i32(block);
    const corba::Blob blob = state.serialize();
    out.write_blob(std::span<const std::byte>(blob));
  }
  corba::Blob blob = out.take_buffer();
  sim::WorkMeter::charge(problem_.work_per_state_byte *
                         static_cast<double>(blob.size()));
  return blob;
}

void OptWorkerServant::set_state(const corba::Blob& blob) {
  corba::CdrInputStream in(blob);
  const std::uint32_t version = in.read_u32();
  if (version != 1)
    throw corba::MARSHAL("unsupported worker state version " +
                         std::to_string(version));
  const std::int64_t calls = in.read_i64();
  const std::uint32_t count = in.read_u32();
  std::map<int, BoxState> states;
  for (std::uint32_t i = 0; i < count; ++i) {
    const int block = in.read_i32();
    if (block < 0 || block >= decomposition_.block_count())
      throw corba::MARSHAL("worker state names block " +
                           std::to_string(block) + " out of range");
    // View read: each BoxState parses straight out of the message buffer
    // instead of being copied into an intermediate Blob first.
    BoxState state = BoxState::deserialize(in.read_blob_view());
    // The kernel would refuse this complex on the next solve, long after
    // the checkpoint that carried it was accepted.
    const std::size_t dim =
        static_cast<std::size_t>(decomposition_.block(block).dimension);
    if (state.initialized() &&
        (state.dimension() != dim || state.size() < dim + 1))
      throw corba::MARSHAL("worker state for block " + std::to_string(block) +
                           " is not n+1 or more points of its dimension");
    states[block] = std::move(state);
  }
  std::lock_guard lock(mu_);
  calls_ = calls;
  block_states_ = std::move(states);
  sim::WorkMeter::charge(problem_.work_per_state_byte *
                         static_cast<double>(blob.size()));
}

corba::Value OptWorkerServant::dispatch(std::string_view op,
                                        const corba::ValueSeq& args) {
  if (auto handled = try_dispatch_state(op, args)) return *handled;
  if (op == "solve") {
    check_arity(op, args, 3);
    const SolveOutcome outcome = solve(args[0].as_i32(), args[1].as_f64_seq(),
                                       args[2].as_i32());
    return corba::Value(corba::ValueSeq{corba::Value(outcome.best_value),
                                        corba::Value(outcome.evaluations)});
  }
  if (op == "total_evaluations") {
    check_arity(op, args, 0);
    return corba::Value(total_evaluations());
  }
  if (op == "calls") {
    check_arity(op, args, 0);
    return corba::Value(calls());
  }
  throw corba::BAD_OPERATION(std::string(op));
}

SolveOutcome decode_solve_outcome(const corba::Value& value) {
  const corba::ValueSeq& fields = value.as_sequence();
  return SolveOutcome{fields.at(0).as_f64(), fields.at(1).as_i64()};
}

SolveOutcome OptWorkerStub::solve(int block, std::span<const double> coupling,
                                  int iterations) const {
  return decode_solve_outcome(
      call("solve", {corba::Value(block), corba::Value::from_span(coupling),
                     corba::Value(iterations)}));
}

std::int64_t OptWorkerStub::total_evaluations() const {
  return call("total_evaluations", {}).as_i64();
}

std::int64_t OptWorkerStub::calls() const { return call("calls", {}).as_i64(); }

OptWorkerProxy::OptWorkerProxy(ft::ProxyConfig config)
    : OptWorkerStub(config.initial), engine_(std::move(config)) {
  engine_.on_rebind = [this](const corba::ObjectRef& ref) { rebind(ref); };
}

SolveOutcome OptWorkerProxy::solve(int block, std::span<const double> coupling,
                                   int iterations) {
  return decode_solve_outcome(engine_.call(
      "solve", {corba::Value(block), corba::Value::from_span(coupling),
                corba::Value(iterations)}));
}

std::int64_t OptWorkerProxy::total_evaluations() {
  return engine_.call("total_evaluations", {}).as_i64();
}

}  // namespace opt
