// The optimization-based synthesis driver of Fig. 1b: global simulated
// annealing over the (log-scaled) design space followed by Nelder-Mead
// refinement — the OPTIMAN / FRIDGE / OBLX recipe.
#pragma once

#include <chrono>

#include "numeric/anneal.hpp"
#include "sizing/cost.hpp"

namespace amsyn::sizing {

struct SynthesisOptions {
  num::AnnealOptions anneal;
  std::size_t refineEvaluations = 400;  ///< Nelder-Mead budget after annealing
  std::uint64_t seed = 1;
  /// Warm start (design-space coordinates); empty = model's initial point.
  std::vector<double> startPoint;
  /// When the annealed result sits just outside a constraint (the classic
  /// penalty-method gap), run a second, objective-free pass that drives the
  /// violations to zero from the best point found.
  bool feasibilityPush = true;
  /// Independent annealing starts.  With 1 (the default) the annealer runs
  /// exactly as it always has, seeded with `seed`.  With k > 1, start i
  /// anneals on RNG stream num::Rng::streamSeed(seed, i); starts execute
  /// concurrently on the shared pool and the winner is chosen by
  /// (feasible, cost, start index), so the result is bit-identical at any
  /// thread count.
  std::size_t multistarts = 1;
};

struct SynthesisResult {
  std::vector<double> x;           ///< best design point found
  Performance performance;         ///< performances at x
  double cost = 0.0;
  bool feasible = false;           ///< all constraint specs met
  std::size_t evaluations = 0;     ///< total model evaluations
  double seconds = 0.0;            ///< wall-clock synthesis time
  num::AnnealStats anneal;         ///< the (winning) start's annealing run
};

/// Run annealing + refinement on a compiled cost function.
SynthesisResult synthesize(const CostFunction& cost, const SynthesisOptions& opts = {});

/// Convenience: compile and run in one call.
SynthesisResult synthesize(const PerformanceModel& model, const SpecSet& specs,
                           const SynthesisOptions& opts = {},
                           const CostOptions& costOpts = {});

}  // namespace amsyn::sizing
