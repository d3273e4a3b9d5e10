// Unit tests for the Complex Box optimizer: convergence on standard
// problems, constraint handling, determinism, resumable state,
// serialization, and bit-exact pins of the kernel's output.
#include "opt/complex_box.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "opt/rosenbrock.hpp"
#include "orb/cdr.hpp"

namespace opt {
namespace {

double sphere(std::span<const double> x) {
  double sum = 0.0;
  for (double xi : x) sum += xi * xi;
  return sum;
}

TEST(ComplexBox, MinimizesSphere) {
  const std::vector<double> lower(4, -10.0);
  const std::vector<double> upper(4, 10.0);
  BoxOptions options;
  options.max_iterations = 2000;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_LT(result.best_value, 1e-4);
  for (double xi : result.best) EXPECT_NEAR(xi, 0.0, 0.05);
}

TEST(ComplexBox, Minimizes2DRosenbrockIntoTheValley) {
  const std::vector<double> lower(2, -2.048);
  const std::vector<double> upper(2, 2.048);
  BoxOptions options;
  options.max_iterations = 5000;
  options.seed = 3;
  const BoxResult result =
      complex_box([](std::span<const double> x) { return rosenbrock(x); },
                  lower, upper, options);
  EXPECT_LT(result.best_value, 1e-3);
  EXPECT_NEAR(result.best[0], 1.0, 0.1);
  EXPECT_NEAR(result.best[1], 1.0, 0.1);
}

TEST(ComplexBox, RespectsBoxConstraints) {
  // Unconstrained optimum (0) lies outside the box [1, 2]^3: the result
  // must sit on the boundary, inside bounds.
  const std::vector<double> lower(3, 1.0);
  const std::vector<double> upper(3, 2.0);
  BoxOptions options;
  options.max_iterations = 1500;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  for (double xi : result.best) {
    EXPECT_GE(xi, 1.0 - 1e-12);
    EXPECT_LE(xi, 2.0 + 1e-12);
  }
  EXPECT_NEAR(result.best_value, 3.0, 0.05);  // at (1,1,1)
}

TEST(ComplexBox, DeterministicPerSeed) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);
  BoxOptions options;
  options.max_iterations = 500;
  options.seed = 42;
  const BoxResult a = complex_box(sphere, lower, upper, options);
  const BoxResult b = complex_box(sphere, lower, upper, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.evaluations, b.evaluations);

  options.seed = 43;
  const BoxResult c = complex_box(sphere, lower, upper, options);
  EXPECT_NE(a.best, c.best);
}

TEST(ComplexBox, IterationCountIsTheStoppingCriterion) {
  const std::vector<double> lower(2, -5.0);
  const std::vector<double> upper(2, 5.0);
  BoxOptions options;
  options.max_iterations = 123;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_EQ(result.iterations, 123);
  EXPECT_FALSE(result.converged);
  EXPECT_GE(result.evaluations, 123);
}

TEST(ComplexBox, ToleranceStopsEarly) {
  const std::vector<double> lower(2, -5.0);
  const std::vector<double> upper(2, 5.0);
  BoxOptions options;
  options.max_iterations = 100000;
  options.tolerance = 1e-6;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100000);
}

TEST(ComplexBox, MoreIterationsMeansMoreEvaluations) {
  // The Table 1 experiment varies worker iterations as the knob for call
  // length; evaluations (and hence simulated work) must scale with it.
  const std::vector<double> lower(5, -5.0);
  const std::vector<double> upper(5, 5.0);
  std::int64_t previous = 0;
  for (int iterations : {100, 1000, 10000}) {
    BoxOptions options;
    options.max_iterations = iterations;
    const BoxResult result = complex_box(sphere, lower, upper, options);
    EXPECT_GT(result.evaluations, previous);
    previous = result.evaluations;
  }
}

TEST(ComplexBox, ResumeContinuesExactlyWhereItStopped) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);

  BoxOptions full;
  full.max_iterations = 400;
  full.seed = 7;
  BoxState full_state;
  const BoxResult one_shot = complex_box(sphere, lower, upper, full, &full_state);

  BoxOptions half = full;
  half.max_iterations = 200;
  BoxState state;
  complex_box(sphere, lower, upper, half, &state);
  const BoxResult resumed = complex_box(sphere, lower, upper, half, &state);

  // 200 + 200 resumed iterations reach the same complex as 400 straight
  // (the RNG stream is carried through the state).
  EXPECT_EQ(resumed.best, one_shot.best);
  EXPECT_EQ(state.total_iterations, 400);
  EXPECT_EQ(state.total_evaluations, full_state.total_evaluations);
}

TEST(ComplexBox, StateSerializationRoundTrips) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);
  BoxOptions options;
  options.max_iterations = 50;
  BoxState state;
  complex_box(sphere, lower, upper, options, &state);

  const corba::Blob blob = state.serialize();
  const BoxState restored = BoxState::deserialize(blob);
  EXPECT_EQ(restored, state);

  // Resuming from the deserialized state gives identical results.
  BoxState a = state;
  BoxState b = restored;
  const BoxResult ra = complex_box(sphere, lower, upper, options, &a);
  const BoxResult rb = complex_box(sphere, lower, upper, options, &b);
  EXPECT_EQ(ra.best, rb.best);
}

TEST(ComplexBox, CorruptStateRejected) {
  corba::Blob garbage{std::byte{9}, std::byte{9}};
  EXPECT_THROW(BoxState::deserialize(garbage), corba::MARSHAL);

  // 12 bytes announcing 2^32-1 points: rejected before any allocation.
  corba::CdrOutputStream huge;
  huge.write_u32(1);
  huge.write_u32(0xFFFFFFFFu);
  huge.write_u32(0);
  EXPECT_THROW(BoxState::deserialize(huge.take_buffer()), corba::MARSHAL);

  // Points of unequal length would let the kernel index past a short one.
  corba::CdrOutputStream ragged;
  ragged.write_u32(1);
  ragged.write_u32(3);
  ragged.write_f64_seq(std::vector<double>{1.0, 2.0});
  ragged.write_f64_seq(std::vector<double>{3.0});
  ragged.write_f64_seq(std::vector<double>{4.0, 5.0});
  ragged.write_f64_seq(std::vector<double>{1.0, 2.0, 3.0});
  ragged.write_i64(0);
  ragged.write_i32(0);
  ragged.write_u64(0);
  EXPECT_THROW(BoxState::deserialize(ragged.take_buffer()), corba::MARSHAL);
}

TEST(ComplexBox, ResumedStateMustFitTheSearchSpace) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  BoxOptions options;
  options.max_iterations = 5;

  BoxState too_few;  // two points of dimension 2: fewer than n+1
  too_few.points = {0.1, 0.2, 0.3, 0.4};
  too_few.values = {1.0, 2.0};
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &too_few),
               std::invalid_argument);

  BoxState too_wide;  // three points of dimension 3
  too_wide.points = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  too_wide.values = {1.0, 2.0, 3.0};
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &too_wide),
               std::invalid_argument);
}

TEST(ComplexBox, InvalidArgumentsRejected) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  const std::vector<double> bad_upper(2, -2.0);
  const std::vector<double> short_upper(1, 1.0);
  BoxOptions options;
  EXPECT_THROW(complex_box(sphere, {}, {}, options), std::invalid_argument);
  EXPECT_THROW(complex_box(sphere, lower, bad_upper, options),
               std::invalid_argument);
  EXPECT_THROW(complex_box(sphere, lower, short_upper, options),
               std::invalid_argument);
  options.alpha = 0.9;
  EXPECT_THROW(complex_box(sphere, lower, upper, options),
               std::invalid_argument);
  options = {};
  options.complex_size = 2;  // < n+1
  EXPECT_THROW(complex_box(sphere, lower, upper, options),
               std::invalid_argument);
}

TEST(ComplexBox, ZeroIterationBudgetJustInitializes) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  BoxOptions options;
  options.max_iterations = 0;
  BoxState state;
  const BoxResult result = complex_box(sphere, lower, upper, options, &state);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.evaluations, 4);  // complex size 2n
  EXPECT_TRUE(state.initialized());
}

// --- bit-exact pins ----------------------------------------------------------
// Rounding steers the search, and with it every virtual time the simulator
// reports, so the kernel must reproduce these runs to the last bit.  The
// values were captured from the nested-vector kernel this flat one replaced;
// a change that reorders or fuses any floating-point operation fails here.
// Dimensions 13, 14 and 15 leave every remainder of the centroid's
// four-wide blocking; the last two runs (one contraction, loose collapse
// threshold) perform 25-50 collapse restarts and 120-2,417 Guin pulls.

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct PinnedRun {
  int n;
  int complex_size;  ///< 0 = the default 2n
  int iterations;    ///< per call
  std::uint64_t seed;
  int max_contractions;
  bool resumed;  ///< a second call resumes from the serialized state
  double best_value;
  double best_first;
  double best_last;
  std::int64_t evaluations;  ///< of the last call
  std::size_t state_bytes;
  std::uint64_t state_fnv1a;
};

constexpr PinnedRun kPinnedRuns[] = {
    {2, 0, 400, 13, 6, false,
     0x1.dc631aa59cc5bp-40, 0x1.00000fb9cc724p+0, 0x1.00001df021095p+0,
     743, 168, 0x74e3638694c580e3ull},
    {2, 3, 400, 103, 6, false,
     0x1.60d74c81f75b2p-36, 0x1.000042d6e9e9p+0, 0x1.0000891c83e69p+0,
     692, 136, 0x5bee3378aaf01160ull},
    {2, 0, 200, 203, 6, true,
     0x1.9cb13612c7643p-37, 0x1.ffffecbc0599dp-1, 0x1.ffffe4cc4fdd7p-1,
     352, 168, 0x531f8fa3303c8c6bull},
    {13, 0, 400, 24, 6, false,
     0x1.6dd40c1deb524p+6, 0x1.a710815411308p-2, 0x1.87e46f3faf721p+0,
     683, 3160, 0x100af0a583b90dcbull},
    {13, 14, 400, 114, 6, false,
     0x1.7e01b15c1c295p+6, 0x1.c394e45a63e4dp-1, 0x1.1fbd8dc946b55p+1,
     658, 1720, 0xc5dc946cec9515e1ull},
    {13, 0, 200, 214, 6, true,
     0x1.c462df9271297p+5, 0x1.bbf43c117cp-8, 0x1.df8a23a9072c1p-6,
     320, 3160, 0xac4d6ee90cd3c96full},
    {14, 0, 400, 25, 6, false,
     0x1.30e127566f224p+6, 0x1.658cc634ac10cp-3, 0x1.45e4abe7e18d8p+0,
     724, 3624, 0x2a4a9490024eac80ull},
    {14, 15, 400, 115, 6, false,
     0x1.0e45d55107ff8p+9, -0x1.9bbfce4fdebd2p-5, 0x1.ca2f32bfdb2aap+1,
     638, 1960, 0x7433756cde39b883ull},
    {14, 0, 200, 215, 6, true,
     0x1.e18fbc99efb92p+4, -0x1.1fc4a5e528e56p-1, 0x1.5203df050fbfbp-4,
     327, 3624, 0xf76546cb51edb82dull},
    {15, 0, 400, 26, 6, false,
     0x1.126f1d5b5c7a9p+6, 0x1.341837f6f3d8cp-1, 0x1.d9bc9e373cp-2,
     705, 4120, 0x6419715186c511c9ull},
    {15, 16, 400, 116, 6, false,
     0x1.f06d8585c3576p+8, 0x1.0010b35f94d33p+0, -0x1.7957857f1c362p+0,
     638, 2216, 0x158a5bd4554711cfull},
    {15, 0, 200, 216, 6, true,
     0x1.62c0b3dd5f26ep+7, -0x1.af54a1fd007adp-1, 0x1.5e918c53eea3ap+0,
     341, 4120, 0x599898376996f0aeull},
    {30, 0, 400, 41, 6, false,
     0x1.92d3746b7b167p+9, -0x1.8e41222b73ab1p-3, 0x1.b42d26623a60ap+0,
     771, 15400, 0x06f5b59f9c0a3de0ull},
    {30, 31, 400, 131, 6, false,
     0x1.be79c94d3f713p+8, 0x1.38259fa0e9ce7p-1, 0x1.64ddac133d68cp-2,
     709, 7976, 0xc86ab92aebd3e6bbull},
    {30, 0, 200, 231, 6, true,
     0x1.0686b82b63e7dp+10, 0x1.33aee1967c4b8p+0, 0x1.36b6a4519fb1dp+0,
     334, 15400, 0x997c58a5c60dc79bull},
    {2, 0, 3000, 5, 1, false,
     0x1.51d4aa3750c2p-59, 0x1.fffffffba55f7p-1, 0x1.fffffff8843c8p-1,
     8113, 168, 0xca98ff32d136551full},
    {2, 3, 3000, 9, 1, true,
     0x1.6751ee698a64fp-52, 0x1.fffffff60f645p-1, 0x1.fffffffb40921p-1,
     3256, 136, 0xefef00c674392e8cull},
};

TEST(ComplexBox, BitExactAgainstPinnedRuns) {
  const Objective objective = [](std::span<const double> x) {
    return rosenbrock(x);
  };
  for (const PinnedRun& pin : kPinnedRuns) {
    SCOPED_TRACE("n=" + std::to_string(pin.n) +
                 " size=" + std::to_string(pin.complex_size) +
                 " seed=" + std::to_string(pin.seed));
    std::vector<double> lower(pin.n), upper(pin.n);
    for (int i = 0; i < pin.n; ++i) {
      lower[i] = -2.0 - 0.25 * (i % 3);
      upper[i] = 3.0 + 0.5 * (i % 5);
    }
    BoxOptions options;
    options.max_iterations = pin.iterations;
    options.seed = pin.seed;
    options.complex_size = pin.complex_size;
    options.max_contractions = pin.max_contractions;
    if (pin.max_contractions == 1) options.collapse_threshold = 1e-6;

    BoxState state;
    BoxResult result = complex_box(objective, lower, upper, options, &state);
    if (pin.resumed) {
      state = BoxState::deserialize(state.serialize());
      result = complex_box(objective, lower, upper, options, &state);
    }
    EXPECT_EQ(result.best_value, pin.best_value);
    EXPECT_EQ(result.best.front(), pin.best_first);
    EXPECT_EQ(result.best.back(), pin.best_last);
    EXPECT_EQ(result.evaluations, pin.evaluations);
    const corba::Blob blob = state.serialize();
    EXPECT_EQ(blob.size(), pin.state_bytes);
    EXPECT_EQ(fnv1a(blob), pin.state_fnv1a);
  }
}

// Pins for the centroid's column blocking and the worst/best scan: n = 3
// (an odd tail), 16 (one full block), 17 (a block and one column) and 33
// (two blocks and one column), each on Rosenbrock, on its floor (a plateau
// objective, so tied values are common) and on Rosenbrock with a NaN region
// (so the scan meets unordered values).  The worst is the first index no
// later value exceeds and the best the first index no later value undercuts,
// as std::max_element / std::min_element define them.  Captured from the
// four-wide scalar-centroid kernel.

double plateau(std::span<const double> x) { return std::floor(rosenbrock(x)); }

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double nan_region(std::span<const double> x) {
  return x[0] > 1.5 ? kNaN : rosenbrock(x);
}

struct EdgePinnedRun {
  int n;
  double (*objective)(std::span<const double>);
  std::uint64_t seed;
  int max_contractions;
  bool resumed;  ///< a second call resumes from the serialized state
  double best_value;
  std::int64_t evaluations;  ///< of the last call
  std::size_t state_bytes;
  std::uint64_t state_fnv1a;
};

constexpr EdgePinnedRun kEdgePinnedRuns[] = {
    {3, rosenbrock, 301, 6, false,
     0x1.d10600a74d2a8p-11, 332, 280, 0x4811c7722b8c7e12ull},
    {3, rosenbrock, 302, 1, true,
     0x1.9cad9fa483748p-17, 327, 280, 0x2a38eb96cffd8684ull},
    {3, plateau, 303, 6, false,
     0x1.8p+1, 341, 280, 0x90efe662b9accfc4ull},
    {3, plateau, 304, 1, true,
     0x0p+0, 276, 280, 0xbf34626db2eee36full},
    {3, nan_region, 305, 6, false,
     kNaN, 206, 280, 0xec16e451ab8c5b6aull},
    {3, nan_region, 306, 1, true,
     0x1.e90cd89cd76e9p+2, 200, 280, 0x50251325487334b5ull},
    {16, rosenbrock, 307, 6, false,
     0x1.a97bae0afe82bp+7, 382, 4648, 0x4f6c6d0dd5282b5eull},
    {16, rosenbrock, 308, 1, true,
     0x1.1b729fcc5831ep+7, 328, 4648, 0x816bd7ae1f4000ceull},
    {16, plateau, 309, 6, false,
     0x1.7cp+7, 376, 4648, 0x8b947b560b4755f1ull},
    {16, plateau, 310, 1, true,
     0x1.24p+7, 347, 4648, 0xe91fc63ed269491full},
    {16, nan_region, 311, 6, false,
     0x1.57e04e85d3045p+12, 234, 4648, 0xf12bae1d634a71f2ull},
    {16, nan_region, 312, 1, true,
     kNaN, 200, 4648, 0x59a20383e1834c20ull},
    {17, rosenbrock, 313, 6, false,
     0x1.01c9caaa3208dp+8, 382, 5208, 0x73346f4eda00fc2dull},
    {17, rosenbrock, 314, 1, true,
     0x1.4ff2ec975d84fp+6, 334, 5208, 0x986556b827f61831ull},
    {17, plateau, 315, 6, false,
     0x1.42p+8, 382, 5208, 0x7a0ada20da97dd82ull},
    {17, plateau, 316, 1, true,
     0x1.34p+7, 338, 5208, 0x44c5787255122caaull},
    {17, nan_region, 317, 6, false,
     0x1.6553f8d6f4c9bp+13, 238, 5208, 0x2279712dd67ee75bull},
    {17, nan_region, 318, 1, true,
     kNaN, 200, 5208, 0x76b674be3ff6122cull},
    {33, rosenbrock, 319, 6, false,
     0x1.5b6269d455fd5p+11, 440, 18520, 0xb663692ced0a82ffull},
    {33, rosenbrock, 320, 1, true,
     0x1.688878d908f0cp+9, 353, 18520, 0x53375bd6766a7e07ull},
    {33, plateau, 321, 6, false,
     0x1.8bep+11, 425, 18520, 0x37bf7f03009d0fd2ull},
    {33, plateau, 322, 1, true,
     0x1.c68p+9, 341, 18520, 0x1c5f50560c5665e4ull},
    {33, nan_region, 323, 6, false,
     kNaN, 273, 18520, 0x67c98bc0962dc29bull},
    {33, nan_region, 324, 1, true,
     kNaN, 200, 18520, 0xac440e40a2945692ull},
};

TEST(ComplexBox, BitExactOnBlockEdgesTiesAndNaN) {
  for (const EdgePinnedRun& pin : kEdgePinnedRuns) {
    SCOPED_TRACE("n=" + std::to_string(pin.n) +
                 " seed=" + std::to_string(pin.seed));
    std::vector<double> lower(pin.n), upper(pin.n);
    for (int i = 0; i < pin.n; ++i) {
      lower[i] = -2.0 - 0.25 * (i % 3);
      upper[i] = 3.0 + 0.5 * (i % 5);
    }
    const Objective objective = pin.objective;
    BoxOptions options;
    options.max_iterations = 200;
    options.seed = pin.seed;
    options.max_contractions = pin.max_contractions;

    BoxState state;
    BoxResult result = complex_box(objective, lower, upper, options, &state);
    if (pin.resumed) {
      state = BoxState::deserialize(state.serialize());
      result = complex_box(objective, lower, upper, options, &state);
    }
    const corba::Blob blob = state.serialize();
    // Compared as bits: NaN is a legitimate pinned value here.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.best_value),
              std::bit_cast<std::uint64_t>(pin.best_value));
    EXPECT_EQ(result.evaluations, pin.evaluations);
    EXPECT_EQ(blob.size(), pin.state_bytes);
    EXPECT_EQ(fnv1a(blob), pin.state_fnv1a);
  }
}

}  // namespace
}  // namespace opt
