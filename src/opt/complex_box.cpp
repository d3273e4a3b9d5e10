#include "opt/complex_box.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orb/cdr.hpp"

namespace opt {

namespace {

std::size_t worst_index(const std::vector<double>& values) {
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

std::size_t best_index(const std::vector<double>& values) {
  return static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
}

/// Centroid of the k points of the row-major k×n `points`, leaving out
/// `skip`.  Four coordinates are summed at a time in local accumulators
/// (registers, not a store and reload per point); each coordinate is still
/// summed from 0.0 over the points in ascending order, so the rounding is
/// that of the one-coordinate-at-a-time loop.
void centroid_without(const double* points, std::size_t k, std::size_t n,
                      std::size_t skip, double* centroid) {
  const double scale = 1.0 / static_cast<double>(k - 1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      if (p == skip) continue;
      const double* x = points + p * n + i;
      c0 += x[0];
      c1 += x[1];
      c2 += x[2];
      c3 += x[3];
    }
    centroid[i] = c0 * scale;
    centroid[i + 1] = c1 * scale;
    centroid[i + 2] = c2 * scale;
    centroid[i + 3] = c3 * scale;
  }
  for (; i < n; ++i) {
    double c = 0.0;
    for (std::size_t p = 0; p < k; ++p)
      if (p != skip) c += points[p * n + i];
    centroid[i] = c * scale;
  }
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
    const std::size_t worst = worst_index(values);
    const std::size_t best = best_index(values);
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
      const std::size_t best_now = best_index(values);
      const double* target = row(best_now);
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
        candidate_value = values[best_now];
      }
    }
    std::copy(candidate.begin(), candidate.end(), row(worst));
    values[worst] = candidate_value;
  }

  const std::size_t best = best_index(values);
  result.best.assign(row(best), row(best) + n);
  result.best_value = values[best];

  s.total_evaluations += result.evaluations;
  s.total_iterations += result.iterations;
  s.rng_state = rng();
  return result;
}

}  // namespace opt
