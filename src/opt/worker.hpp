// The optimization worker service: stub, skeleton/servant, and the
// hand-written fault-tolerance proxy of the paper's Fig. 2.
//
//   interface OptWorker {           // checkpointable
//     SolveOutcome solve(in long block, in DoubleSeq coupling,
//                        in long iterations);
//     long long total_evaluations();
//     long long calls();
//   };
//
// A worker owns one (or more) blocks of the decomposed Rosenbrock problem.
// Each solve() call runs the Complex Box algorithm on the block objective
// for the requested number of iterations at the given coupling values.  The
// worker keeps the final complex per block as *internal state*: the next
// solve warm-starts from it (points are re-evaluated because the coupling,
// and hence the objective, moved).  That state is what get_state/set_state
// checkpoint — a recovered worker resumes from the last complex instead of
// from scratch, which is precisely the statefulness that motivates the
// paper's checkpointing design.
#pragma once

#include <map>
#include <mutex>

#include "ft/checkpoint.hpp"
#include "ft/proxy.hpp"
#include "opt/complex_box.hpp"
#include "opt/rosenbrock.hpp"
#include "orb/stub.hpp"

namespace opt {

inline constexpr std::string_view kOptWorkerRepoId =
    "IDL:corbaft/opt/OptWorker:1.0";
inline constexpr std::string_view kOptWorkerServiceType = "OptWorker";

/// Problem definition and simulation cost model shared by all workers.
struct WorkerProblem {
  int dimension = 30;
  int blocks = 3;
  double lower = -5.0;
  double upper = 5.0;
  std::uint64_t seed = 1;

  /// Simulated work units charged per objective evaluation and block
  /// dimension (the cost of one block-objective computation).
  double work_per_eval_per_dim = 10.0;
  /// Simulated work units per serialized state byte charged by
  /// get_state/set_state (state marshaling cost on the worker host).
  double work_per_state_byte = 0.0;
};

struct SolveOutcome {
  double best_value = 0.0;
  std::int64_t evaluations = 0;
};

class OptWorkerServant final : public corba::Servant,
                               public ft::CheckpointableServant {
 public:
  explicit OptWorkerServant(WorkerProblem problem);

  std::string_view repo_id() const noexcept override { return kOptWorkerRepoId; }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override;

  // Typed operations (also callable directly in-process).
  SolveOutcome solve(int block, std::span<const double> coupling,
                     int iterations);
  std::int64_t total_evaluations() const;
  std::int64_t calls() const;

  // CheckpointableServant
  corba::Blob get_state() override;
  void set_state(const corba::Blob& state) override;

 private:
  WorkerProblem problem_;
  Decomposition decomposition_;
  /// Box bounds over the full dimension, built once; each solve() passes
  /// the prefix its block needs.
  std::vector<double> lower_;
  std::vector<double> upper_;
  mutable std::mutex mu_;
  std::map<int, BoxState> block_states_;
  /// Per-call coupling snapshot, reused across solve() calls (guarded by
  /// mu_) so the hot path stops allocating per invocation.
  std::vector<double> coupling_scratch_;
  std::int64_t calls_ = 0;
};

class OptWorkerStub : public corba::StubBase {
 public:
  OptWorkerStub() = default;
  explicit OptWorkerStub(corba::ObjectRef ref) : StubBase(std::move(ref)) {}

  SolveOutcome solve(int block, std::span<const double> coupling,
                     int iterations) const;
  std::int64_t total_evaluations() const;
  std::int64_t calls() const;
};

/// Hand-written fault-tolerance proxy, "derived from the stub class and
/// therefore [providing] all of the methods of the stub class" (§3).  Its
/// methods shadow the stub's with engine-wrapped equivalents; after a
/// recovery the engine re-targets the inherited stub, so even unshadowed
/// stub methods keep working against the replacement instance.
class OptWorkerProxy : public OptWorkerStub {
 public:
  explicit OptWorkerProxy(ft::ProxyConfig config);

  SolveOutcome solve(int block, std::span<const double> coupling,
                     int iterations);
  std::int64_t total_evaluations();

  ft::ProxyEngine& engine() noexcept { return engine_; }

 private:
  ft::ProxyEngine engine_;
};

/// Decodes the wire representation of SolveOutcome (shared with the
/// manager's request proxies).
SolveOutcome decode_solve_outcome(const corba::Value& value);

}  // namespace opt
