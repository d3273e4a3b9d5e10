// Unit tests for the OptWorker service: typed calls through the stub, state
// checkpoint/restore, warm starting, and simulated work charging.
#include "opt/worker.hpp"

#include <gtest/gtest.h>

#include "orb/cdr.hpp"
#include "orb/orb.hpp"
#include "sim/work_meter.hpp"

namespace opt {
namespace {

WorkerProblem paper_problem() {
  WorkerProblem problem;
  problem.dimension = 30;
  problem.blocks = 3;
  problem.work_per_eval_per_dim = 2.0;
  return problem;
}

class WorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_shared<corba::InProcessNetwork>();
    orb_ = corba::ORB::init({.endpoint_name = "node", .network = network_});
    servant_ = std::make_shared<OptWorkerServant>(paper_problem());
    stub_ = OptWorkerStub(orb_->activate(servant_, "worker"));
  }

  std::shared_ptr<corba::InProcessNetwork> network_;
  std::shared_ptr<corba::ORB> orb_;
  std::shared_ptr<OptWorkerServant> servant_;
  OptWorkerStub stub_;
};

TEST_F(WorkerTest, SolveReducesBlockObjective) {
  const std::vector<double> coupling = {1.0, 1.0};
  const SolveOutcome first = stub_.solve(0, coupling, 50);
  const SolveOutcome second = stub_.solve(0, coupling, 2000);
  EXPECT_GT(first.evaluations, 0);
  EXPECT_LE(second.best_value, first.best_value);
  EXPECT_EQ(stub_.calls(), 2);
}

TEST_F(WorkerTest, AtTrueCouplingBlocksDescendFarBelowRandom) {
  // With coupling values at the global optimum (all ones) each block's own
  // optimum is 0.  The Complex Box is a *local* direct-search method (the
  // paper uses it as-is, §4): depending on the seed it lands in the global
  // basin or in one of the Rosenbrock side basins (f ~ 4..80).  The robust
  // property: the result sits orders of magnitude below random points in
  // the box (O(10^4..10^5)), and warm-started refinement never regresses.
  const std::vector<double> coupling = {1.0, 1.0};
  for (int block = 0; block < 3; ++block) {
    const SolveOutcome coarse = stub_.solve(block, coupling, 2000);
    const SolveOutcome refined = stub_.solve(block, coupling, 20000);
    EXPECT_LT(coarse.best_value, 200.0) << "block " << block;
    EXPECT_LE(refined.best_value, coarse.best_value * (1.0 + 1e-12))
        << "block " << block;
  }
}

TEST_F(WorkerTest, InvalidArgumentsRejected) {
  const std::vector<double> coupling = {0.0, 0.0};
  EXPECT_THROW(stub_.solve(-1, coupling, 10), corba::BAD_PARAM);
  EXPECT_THROW(stub_.solve(3, coupling, 10), corba::BAD_PARAM);
  EXPECT_THROW(stub_.solve(0, coupling, 0), corba::BAD_PARAM);
  const std::vector<double> bad_coupling = {0.0};
  EXPECT_THROW(stub_.solve(0, bad_coupling, 10), corba::BAD_PARAM);
}

TEST_F(WorkerTest, WarmStartImprovesAcrossCalls) {
  const std::vector<double> coupling = {0.5, 0.5};
  double previous = 1e300;
  for (int call = 0; call < 4; ++call) {
    const SolveOutcome outcome = stub_.solve(1, coupling, 300);
    EXPECT_LE(outcome.best_value, previous * (1.0 + 1e-12));
    previous = outcome.best_value;
  }
}

TEST_F(WorkerTest, StateTransplantsToFreshWorker) {
  const std::vector<double> coupling = {0.5, 0.5};
  stub_.solve(0, coupling, 500);
  stub_.solve(1, coupling, 500);
  const corba::Blob state = ft::get_state(stub_.ref());

  auto replacement = std::make_shared<OptWorkerServant>(paper_problem());
  OptWorkerStub fresh(orb_->activate(replacement, "worker2"));
  ft::set_state(fresh.ref(), state);
  EXPECT_EQ(fresh.calls(), 2);
  EXPECT_EQ(fresh.total_evaluations(), stub_.total_evaluations());

  // The restored worker continues from the checkpointed complex: its next
  // solve is a warm start, not a cold one.
  const SolveOutcome restored = fresh.solve(0, coupling, 300);
  auto cold = std::make_shared<OptWorkerServant>(paper_problem());
  const SolveOutcome from_scratch = cold->solve(0, coupling, 300);
  EXPECT_LE(restored.best_value, from_scratch.best_value * (1.0 + 1e-9));
}

TEST_F(WorkerTest, StateRoundTripIsExact) {
  const std::vector<double> coupling = {-0.3, 0.8};
  stub_.solve(2, coupling, 200);
  const corba::Blob state = ft::get_state(stub_.ref());
  auto replacement = std::make_shared<OptWorkerServant>(paper_problem());
  const corba::ObjectRef fresh_ref = orb_->activate(replacement);
  ft::set_state(fresh_ref, state);
  // Identical state => identical continuation.
  const SolveOutcome a = servant_->solve(2, coupling, 100);
  const SolveOutcome b = replacement->solve(2, coupling, 100);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_F(WorkerTest, ChargesWorkPerEvaluation) {
  const std::vector<double> coupling = {0.0, 0.0};
  sim::WorkScope scope;
  const SolveOutcome outcome = servant_->solve(0, coupling, 100);
  // Block 0 has dimension 10; each evaluation charges 2.0 * 10 units.
  EXPECT_DOUBLE_EQ(scope.consumed(),
                   20.0 * static_cast<double>(outcome.evaluations));
}

TEST_F(WorkerTest, StateMarshalingCostCharged) {
  WorkerProblem costly = paper_problem();
  costly.work_per_state_byte = 3.0;
  auto servant = std::make_shared<OptWorkerServant>(costly);
  const std::vector<double> coupling = {0.0, 0.0};
  servant->solve(0, coupling, 50);
  sim::WorkScope scope;
  const corba::Blob state = servant->get_state();
  EXPECT_DOUBLE_EQ(scope.consumed(), 3.0 * static_cast<double>(state.size()));
}

TEST_F(WorkerTest, DeterministicAcrossIdenticallyConfiguredWorkers) {
  auto other = std::make_shared<OptWorkerServant>(paper_problem());
  const std::vector<double> coupling = {0.25, -0.5};
  const SolveOutcome a = servant_->solve(1, coupling, 400);
  const SolveOutcome b = other->solve(1, coupling, 400);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// get_state after a fixed call sequence, captured byte for byte from the
// nested-vector kernel that the flat one replaced: checkpoints written
// before and after the change stay interchangeable.
TEST(WorkerCheckpoint, StateBytesMatchPinnedCheckpoint) {
  constexpr std::string_view kPinned =
    "0100000000000000070000000000000003000000000000001801000001000000"
    "0600000003000000000000000c67e1d406e2d63ff09ba8b7140d70bfe4062c4b"
    "22b9e7bf0300000000000000e9b6eca97d30d73f8046c8a43d564fbf3dfc7368"
    "9bb7e7bf03000000000000009f96d27fdfe6d63f7d2defc813266dbf169057b0"
    "03b5e7bf0300000000000000a117bebc6e91d63f3ba604cd5bdb78bf40187505"
    "78a6e7bf030000000000000075e7a62597c4d63f6ae97ba8354178bf6bd3b5c2"
    "24cde7bf0300000000000000e6b35947c6d0d63f320fd50b14d76cbfce68811f"
    "08a2e7bf060000000000000010f934497edc56401edc386d8adc564046489eb1"
    "84dc564012bad39bdddc56408f32ca7698dc5640dcd477b3bedc564098010000"
    "00000000d200000000000000d992e21cf170653401000000a800000001000000"
    "0400000002000000000000004888336e9b0ded3fc48d7b39fd15ec3f02000000"
    "000000004ef354dad20ced3f3c41be582a15ec3f0200000000000000a8950988"
    "570ded3f17a405811015ec3f020000000000000016a14401a40ded3f30da93a8"
    "0316ec3f0400000000000000c1e72f106cd7f53ff7add5ed6dd7f53fdaf93b52"
    "6ed7f53fc874352b6cd7f53fda0000000000000082000000000000006b9e8281"
    "0f24534f02000000a8000000010000000400000002000000000000008a3bcef8"
    "f622e23fa27bcd5ded8ed43f0200000000000000269f3e893a23e23fcffaebbc"
    "568fd43f0200000000000000a2a25f4e6723e23f788c69e5ab90d43f02000000"
    "000000006cce2f041b23e23f0c26869f758ed43f04000000000000000e6d020a"
    "f520d03f7191ded2f320d03f0673a026f420d03f78b8534ff520d03ff8000000"
    "000000009600000000000000e6c3e4fe1a81a633";
  WorkerProblem problem;
  problem.dimension = 9;
  problem.blocks = 3;
  problem.seed = 17;
  OptWorkerServant servant(problem);
  for (int call = 0; call < 7; ++call) {
    const std::vector<double> coupling = {0.5 + 0.1 * call, 1.0 - 0.05 * call};
    servant.solve(call % 3, coupling, 40 + 10 * call);
  }
  const corba::Blob blob = servant.get_state();
  std::string hex;
  for (std::byte b : blob) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[static_cast<unsigned>(b) >> 4];
    hex += kDigits[static_cast<unsigned>(b) & 0xF];
  }
  EXPECT_EQ(hex, kPinned);

  OptWorkerServant restored(problem);
  restored.set_state(blob);
  EXPECT_EQ(restored.get_state(), blob);
}

// One-block worker checkpoint in get_state's layout around `box_blob`.
corba::Blob worker_state_with(int block, const corba::Blob& box_blob) {
  corba::CdrOutputStream out;
  out.write_u32(1);
  out.write_i64(0);
  out.write_u32(1);
  out.write_i32(block);
  out.write_blob(std::span<const std::byte>(box_blob));
  return out.take_buffer();
}

TEST(WorkerCheckpoint, RaggedBlockStateRejected) {
  // A block state whose points differ in length must not reach the kernel.
  corba::CdrOutputStream box;
  box.write_u32(1);
  box.write_u32(2);
  box.write_f64_seq(std::vector<double>{1.0, 2.0, 3.0});
  box.write_f64_seq(std::vector<double>{4.0});
  box.write_f64_seq(std::vector<double>{1.0, 2.0});
  box.write_i64(0);
  box.write_i32(0);
  box.write_u64(0);
  OptWorkerServant servant(paper_problem());
  EXPECT_THROW(servant.set_state(worker_state_with(0, box.take_buffer())),
               corba::MARSHAL);
}

// Serialized complex of `points` points of `dimension` coordinates.
corba::Blob complex_of(std::size_t points, std::size_t dimension) {
  BoxState state;
  state.points.assign(points * dimension, 0.5);
  state.values.assign(points, 1.0);
  return state.serialize();
}

TEST(WorkerCheckpoint, MismatchedBlockStateRejected) {
  // paper_problem() splits 30 dimensions into blocks of 10, 9 and 9.
  OptWorkerServant servant(paper_problem());
  const std::vector<double> coupling = {1.0, 1.0};
  servant.solve(0, coupling, 20);
  const corba::Blob before = servant.get_state();

  // A block index the decomposition does not have.
  EXPECT_THROW(servant.set_state(worker_state_with(3, complex_of(11, 10))),
               corba::MARSHAL);
  EXPECT_THROW(servant.set_state(worker_state_with(-1, complex_of(11, 10))),
               corba::MARSHAL);
  // A 3-dimensional complex for the 10-dimensional block 0.
  EXPECT_THROW(servant.set_state(worker_state_with(0, complex_of(6, 3))),
               corba::MARSHAL);
  // Ten points of dimension 10: fewer than n + 1.
  EXPECT_THROW(servant.set_state(worker_state_with(0, complex_of(10, 10))),
               corba::MARSHAL);
  // Nothing was replaced, and the worker still solves.
  EXPECT_EQ(servant.get_state(), before);
  EXPECT_NO_THROW(servant.solve(0, coupling, 20));

  // The smallest complex that fits is accepted, as is an empty one.
  EXPECT_NO_THROW(servant.set_state(worker_state_with(0, complex_of(11, 10))));
  EXPECT_NO_THROW(servant.solve(0, coupling, 20));
  EXPECT_NO_THROW(servant.set_state(worker_state_with(2, complex_of(0, 9))));
  EXPECT_NO_THROW(servant.solve(2, coupling, 20));
}

}  // namespace
}  // namespace opt
