// inverse.hpp — inverse queries on monotone compiled plans.
//
// The paper's what-if loop asks "what is the power at this pixel rate";
// a designer usually wants the converse: "what is the *largest* pixel
// rate that still meets 100 µW?"  When the chosen metric is monotone in
// the queried parameter over the bracket, that answer is a bisection —
// ~50 Plays instead of a dense sweep.
//
// Monotonicity is not assumed: the solver first probes the bracket at
// `probe_points` equally spaced values (one lane batch through the
// engine) and rejects the query with an explicit error — naming the
// violating probe pair — when the metric is neither non-decreasing nor
// non-increasing.  A non-monotone metric has no single answer a
// bisection could find, and silently returning one of several boundary
// crossings would be worse than refusing.
#pragma once

#include <cstdint>
#include <string>

#include "engine/engine.hpp"

namespace powerplay::explore {

struct InverseSpec {
  std::string param;            ///< global parameter to solve for
  double lo = 0;                ///< bracket (lo < hi required)
  double hi = 0;
  std::string metric = "power"; ///< power | area | energy | delay
  double limit = 0;             ///< constraint bound on the metric
  /// true: constraint is metric <= limit; false: metric >= limit.
  bool upper_bound = true;
  /// true: find the largest feasible param value; false: the smallest.
  bool maximize = true;

  std::size_t probe_points = 9;  ///< monotonicity probe (>= 3)
  double tol_rel = 1e-9;         ///< bracket width termination, relative
  std::size_t max_iters = 200;   ///< bisection safety stop
};

struct InverseResult {
  bool feasible = false;
  double param_value = 0;   ///< answer when feasible
  double metric_value = 0;  ///< metric at the answer
  bool increasing = false;  ///< probe verdict: metric grows with param
  std::size_t evaluations = 0;
  std::size_t iterations = 0;  ///< bisection steps taken
};

/// Solve.  Throws expr::ExprError on an empty/inverted bracket, an
/// unknown metric or parameter, or a non-monotone probe.
[[nodiscard]] InverseResult solve_inverse(
    engine::EvalEngine& engine, const sheet::Design& design,
    const InverseSpec& spec, const sheet::SweepProgress& progress = {});

[[nodiscard]] std::string inverse_table(const InverseSpec& spec,
                                        const InverseResult& r);
[[nodiscard]] std::string inverse_csv(const InverseSpec& spec,
                                      const InverseResult& r);

}  // namespace powerplay::explore
