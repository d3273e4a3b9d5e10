// The Complex Box algorithm (M.J. Box, 1965).
//
// A direct-search method for bound-constrained minimization: maintain a
// "complex" of K >= n+1 points (classically K = 2n); repeatedly replace the
// worst point by its over-reflection (factor alpha ~ 1.3) through the
// centroid of the others, contracting toward the centroid while the
// reflected point stays worst, clamping to the box throughout.  The paper
// runs "multiple instances of a sequential implementation of the Complex
// Box algorithm" as workers, with the iteration count as the stopping
// criterion (§4, Table 1) — so iterations and function evaluations, not
// wall time, parameterize the work here.
//
// BoxState makes the optimizer resumable and serializable: it is exactly
// what a worker checkpoints, so a restarted service continues from the last
// complex instead of starting over.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "orb/value.hpp"

namespace opt {

using Objective = std::function<double(std::span<const double>)>;

struct BoxOptions {
  int max_iterations = 1000;
  /// Over-reflection factor (Box recommends 1.3).
  double alpha = 1.3;
  /// Stop when f(worst) - f(best) falls below this; 0 disables (pure
  /// iteration-count stopping, as in the paper).
  double tolerance = 0.0;
  /// Complex size; 0 selects the classic 2n (at least n+1).
  int complex_size = 0;
  std::uint64_t seed = 1;
  /// Contractions toward the centroid before giving up on a reflection.
  /// Kept small so the evaluation cost per iteration stays roughly
  /// constant across the active and converged phases of the search (the
  /// iteration count is the paper's unit of per-call work).
  int max_contractions = 6;

  /// When the complex collapses (worst - best below this, relative to
  /// |best|), re-seed all points but the best in a shrunken box around the
  /// best point, so descent along narrow valleys (Rosenbrock!) continues
  /// instead of stalling.  0 disables the restart.
  double collapse_threshold = 1e-10;
  /// Half-width of the restart box, as a fraction of the bound range;
  /// halves on every consecutive restart.
  double restart_radius = 0.05;
  /// Collapse restarts allowed per run.  Each restart re-values the whole
  /// complex (~2n evaluations); the cap keeps evaluation cost roughly
  /// linear in the iteration budget once the search has converged.
  int max_restarts = 25;
};

struct BoxResult {
  std::vector<double> best;
  double best_value = 0.0;
  int iterations = 0;           ///< iterations performed in this call
  std::int64_t evaluations = 0; ///< objective evaluations in this call
  bool converged = false;       ///< tolerance reached (never with tol = 0)
};

/// Resumable optimizer state: the complex, its values, and counters.  The
/// complex is flat and row-major: point p is
/// points[p * dimension(), (p + 1) * dimension()).
class BoxState {
 public:
  bool initialized() const noexcept { return !values.empty(); }
  /// Points in the complex.
  std::size_t size() const noexcept { return values.size(); }
  /// Coordinates per point (0 while uninitialized).
  std::size_t dimension() const noexcept {
    return values.empty() ? 0 : points.size() / values.size();
  }
  std::span<const double> point(std::size_t p) const noexcept {
    const std::size_t n = dimension();
    return {points.data() + p * n, n};
  }

  /// Serialization for checkpointing (versioned, CDR-based): the point
  /// count, then one f64 sequence per point.  deserialize takes a view so
  /// restore paths can parse directly out of a larger message buffer
  /// without cutting out a Blob first; it throws MARSHAL for a truncated
  /// or ragged complex.
  corba::Blob serialize() const;
  static BoxState deserialize(std::span<const std::byte> blob);

  friend bool operator==(const BoxState&, const BoxState&) = default;

  std::vector<double> points;  ///< size() x dimension(), row-major
  std::vector<double> values;  ///< one per point
  std::int64_t total_evaluations = 0;
  int total_iterations = 0;
  std::uint64_t rng_state = 0;  ///< replacement seed for the next run
};

/// Runs (or resumes) the Complex Box algorithm for options.max_iterations
/// iterations.  When `state` is supplied and initialized, the complex is
/// resumed from it and updated in place (so an objective that throws leaves
/// it part-way through an iteration).  Throws std::invalid_argument for
/// inconsistent bounds/options, or for a resumed complex that is not at
/// least n+1 points of n coordinates each.
///
/// The kernel is bit-exact by contract: every floating-point operation, and
/// its order, is fixed, because rounding steers the search and with it every
/// virtual time the simulator reports.
BoxResult complex_box(const Objective& objective,
                      std::span<const double> lower,
                      std::span<const double> upper, const BoxOptions& options,
                      BoxState* state = nullptr);

}  // namespace opt
