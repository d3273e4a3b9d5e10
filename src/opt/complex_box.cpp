#include "opt/complex_box.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "orb/cdr.hpp"

namespace opt {

namespace {

struct Extremes {
  std::size_t worst = 0;
  std::size_t best = 0;
};

/// Indices of the worst (largest) and best (smallest) value in one pass,
/// under std::max_element's and std::min_element's rules: the first index
/// no later value exceeds, and the first no later value undercuts.  A NaN
/// never wins a comparison, so one at index 0 stays both.  The `else` is
/// exact: lo <= hi whenever either comparison can hold.
Extremes extremes(const std::vector<double>& values) {
  Extremes e;
  double hi = values[0];
  double lo = values[0];
  for (std::size_t p = 1; p < values.size(); ++p) {
    const double v = values[p];
    if (hi < v) {
      hi = v;
      e.worst = p;
    } else if (v < lo) {
      lo = v;
      e.best = p;
    }
  }
  return e;
}

/// Two doubles in one SSE2 register; + and * act lane by lane with the
/// rounding of the scalar operations.  Pairs move through memcpy because
/// rows are not 16-byte aligned when n is odd.
using f64x2 = double __attribute__((vector_size(16)));

f64x2 load_pair(const double* x) {
  f64x2 v;
  std::memcpy(&v, x, sizeof v);
  return v;
}

void store_pair(double* x, f64x2 v) { std::memcpy(x, &v, sizeof v); }

/// Sums columns [0, W) of the k rows (stride n) at `points`, leaving out row
/// `skip`, and stores each sum times `scale`.  Column pairs accumulate in
/// two-lane registers (the pack expansion unrolls them, so none lives on the
/// stack), an odd last column in a scalar; each column is still summed from
/// 0.0 over the rows in ascending order.
template <std::size_t W>
void centroid_columns(const double* points, std::size_t k, std::size_t n,
                      std::size_t skip, double scale, double* centroid) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    [[maybe_unused]] std::array<f64x2, W / 2> pairs{};
    double odd = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      if (p == skip) continue;
      const double* x = points + p * n;
      ((pairs[J] += load_pair(x + 2 * J)), ...);
      if constexpr (W % 2 != 0) odd += x[W - 1];
    }
    (store_pair(centroid + 2 * J, pairs[J] * scale), ...);
    if constexpr (W % 2 != 0) centroid[W - 1] = odd * scale;
  }(std::make_index_sequence<W / 2>{});
}

constexpr std::size_t kCentroidBlock = 16;

/// centroid_columns<w> for w = 1 .. kCentroidBlock, at index w - 1.
constexpr auto kCentroidColumns = []<std::size_t... W>(
                                      std::index_sequence<W...>) {
  return std::array{&centroid_columns<W + 1>...};
}(std::make_index_sequence<kCentroidBlock>{});

/// Centroid of the k points of the row-major k×n `points`, leaving out
/// `skip`, one pass over the points per block of up to 16 columns.
void centroid_without(const double* points, std::size_t k, std::size_t n,
                      std::size_t skip, double* centroid) {
  const double scale = 1.0 / static_cast<double>(k - 1);
  for (std::size_t i = 0; i < n; i += kCentroidBlock)
    kCentroidColumns[std::min(n - i, kCentroidBlock) - 1](
        points + i, k, n, skip, scale, centroid + i);
}

}  // namespace

corba::Blob BoxState::serialize() const {
  corba::CdrOutputStream out;
  out.write_u32(1);  // format version
  out.write_u32(static_cast<std::uint32_t>(size()));
  for (std::size_t p = 0; p < size(); ++p) out.write_f64_seq(point(p));
  out.write_f64_seq(values);
  out.write_i64(total_evaluations);
  out.write_i32(total_iterations);
  out.write_u64(rng_state);
  return out.take_buffer();
}

BoxState BoxState::deserialize(std::span<const std::byte> blob) {
  corba::CdrInputStream in(blob);
  const std::uint32_t version = in.read_u32();
  if (version != 1)
    throw corba::MARSHAL("unsupported BoxState version " +
                         std::to_string(version));
  BoxState state;
  const std::uint32_t count = in.read_u32();
  // Every point costs at least its u32 length, so a count the remaining
  // bytes cannot hold is rejected before anything is allocated for it.
  if (count > in.remaining() / sizeof(std::uint32_t))
    throw corba::MARSHAL("corrupt BoxState: point count exceeds the blob");
  std::vector<double> scratch;
  std::size_t dimension = 0;
  for (std::uint32_t p = 0; p < count; ++p) {
    const std::span<const double> row = in.read_f64_view(scratch);
    if (p == 0) dimension = row.size();
    if (row.size() != dimension)
      throw corba::MARSHAL("corrupt BoxState: points of unequal dimension");
    state.points.insert(state.points.end(), row.begin(), row.end());
  }
  state.values = in.read_f64_seq();
  state.total_evaluations = in.read_i64();
  state.total_iterations = in.read_i32();
  state.rng_state = in.read_u64();
  if (state.values.size() != count)
    throw corba::MARSHAL("corrupt BoxState: point/value count mismatch");
  return state;
}

// The operation order of every loop below is part of the kernel's contract
// (points in ascending index, one rounding per operation, nothing fused or
// reassociated): opt_tests pins its results bit for bit.
BoxResult complex_box(const Objective& objective,
                      std::span<const double> lower,
                      std::span<const double> upper, const BoxOptions& options,
                      BoxState* state) {
  const std::size_t n = lower.size();
  if (n == 0) throw std::invalid_argument("empty search space");
  if (upper.size() != n)
    throw std::invalid_argument("bound dimension mismatch");
  for (std::size_t i = 0; i < n; ++i)
    if (!(lower[i] < upper[i]))
      throw std::invalid_argument("lower bound must be below upper bound");
  if (options.alpha <= 1.0)
    throw std::invalid_argument("reflection factor must exceed 1");
  if (options.max_iterations < 0)
    throw std::invalid_argument("negative iteration budget");

  const std::size_t complex_size =
      options.complex_size > 0
          ? static_cast<std::size_t>(options.complex_size)
          : std::max(n + 1, 2 * n);
  if (complex_size < n + 1)
    throw std::invalid_argument("complex size must be at least n+1");

  BoxState local;
  BoxState& s = state ? *state : local;
  const bool resumed = s.initialized();
  if (resumed && (s.size() < n + 1 || s.points.size() != s.size() * n))
    throw std::invalid_argument(
        "resumed state is not n+1 or more points of dimension n");

  BoxResult result;
  std::mt19937_64 rng((resumed && s.rng_state != 0) ? s.rng_state
                                                    : options.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  std::vector<double>& points = s.points;
  std::vector<double>& values = s.values;
  auto row = [&](std::size_t p) { return points.data() + p * n; };

  auto clamp = [&](double* x) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::clamp(x[i], lower[i], upper[i]);
  };
  auto evaluate = [&](const double* x) {
    ++result.evaluations;
    return objective(std::span<const double>(x, n));
  };

  if (!resumed) {
    points.assign(complex_size * n, 0.0);
    values.clear();
    values.reserve(complex_size);
    for (std::size_t p = 0; p < complex_size; ++p) {
      double* x = row(p);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = lower[i] + uniform(rng) * (upper[i] - lower[i]);
      values.push_back(evaluate(x));
    }
  }
  const std::size_t k = values.size();

  std::vector<double> centroid(n);
  std::vector<double> candidate(n);
  double restart_radius = options.restart_radius;
  int restarts = 0;
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    const auto [worst, best] = extremes(values);
    if (options.tolerance > 0 &&
        values[worst] - values[best] <= options.tolerance) {
      result.converged = true;
      break;
    }
    ++result.iterations;

    // Collapse restart: when the complex has degenerated onto one point,
    // re-seed everything but the best inside a small box around it so the
    // search can keep crawling down a narrow valley.
    if (options.collapse_threshold > 0 && restarts < options.max_restarts &&
        values[worst] - values[best] <=
            options.collapse_threshold * (1.0 + std::abs(values[best]))) {
      ++restarts;
      const double* centre = row(best);
      for (std::size_t p = 0; p < k; ++p) {
        if (p == best) continue;
        double* x = row(p);
        for (std::size_t i = 0; i < n; ++i) {
          const double radius = restart_radius * (upper[i] - lower[i]);
          x[i] = centre[i] + (2.0 * uniform(rng) - 1.0) * radius;
        }
        clamp(x);
        values[p] = evaluate(x);
      }
      restart_radius = std::max(restart_radius * 0.5, 1e-9);
      continue;
    }

    // Centroid of all points except the worst.
    centroid_without(points.data(), k, n, worst, centroid.data());

    // Over-reflection of the worst point through the centroid.
    const double* worst_point = row(worst);
    for (std::size_t i = 0; i < n; ++i)
      candidate[i] =
          centroid[i] + options.alpha * (centroid[i] - worst_point[i]);
    clamp(candidate.data());
    double candidate_value = evaluate(candidate.data());

    // While still the worst, contract toward the centroid.
    int contractions = 0;
    while (candidate_value > values[worst] &&
           contractions < options.max_contractions) {
      for (std::size_t i = 0; i < n; ++i)
        candidate[i] = 0.5 * (candidate[i] + centroid[i]);
      candidate_value = evaluate(candidate.data());
      ++contractions;
    }
    if (candidate_value > values[worst]) {
      // Guin's modification: the centroid of a curved valley can be worse
      // than every complex point, so pull the candidate toward the best
      // point instead — continuity guarantees an improvement eventually.
      // Nothing has written `values` since the scan, so `best` is current.
      const double* target = row(best);
      int pulls = 0;
      while (candidate_value > values[worst] &&
             pulls < options.max_contractions) {
        for (std::size_t i = 0; i < n; ++i)
          candidate[i] = 0.5 * (candidate[i] + target[i]);
        candidate_value = evaluate(candidate.data());
        ++pulls;
      }
      if (candidate_value > values[worst]) {
        // Numerical corner (flat region): land on the best point itself.
        std::copy(target, target + n, candidate.begin());
        candidate_value = values[best];
      }
    }
    std::copy(candidate.begin(), candidate.end(), row(worst));
    values[worst] = candidate_value;
  }

  const std::size_t best = extremes(values).best;
  result.best.assign(row(best), row(best) + n);
  result.best_value = values[best];

  s.total_evaluations += result.evaluations;
  s.total_iterations += result.iterations;
  s.rng_state = rng();
  return result;
}

}  // namespace opt
