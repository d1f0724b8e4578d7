#include "numeric/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace amsyn::num {

namespace {

/// Estimate an initial temperature that accepts `targetAcceptance` of random
/// uphill moves (classic Aarts & van Laarhoven calibration).  Every probe is
/// undone so calibration cannot walk the state away from its starting point
/// (which would wreck warm starts, e.g. the relaxed-dc bias vector).
double calibrateTemperature(const AnnealProblem& p, Rng& rng, double targetAcceptance,
                            std::size_t samples) {
  std::vector<double> uphill;
  const double cur = p.cost();
  for (std::size_t i = 0; i < samples; ++i) {
    p.propose(rng);
    const double delta = p.cost() - cur;
    if (delta > 0) uphill.push_back(delta);
    p.undo();
  }
  if (uphill.empty()) return 1.0;
  double mean = 0.0;
  for (double d : uphill) mean += d;
  mean /= static_cast<double>(uphill.size());
  const double lnA = std::log(std::max(1e-6, targetAcceptance));
  return -mean / lnA;
}

}  // namespace

AnnealStats anneal(const AnnealProblem& problem, const AnnealOptions& opts) {
  AMSYN_SPAN("anneal");
  Rng rng(opts.seed);
  AnnealStats stats;

  const std::size_t movesPerStage =
      opts.movesPerStage ? opts.movesPerStage
                         : std::max<std::size_t>(64, 16 * opts.problemSizeHint);

  double temperature = opts.initialTemperature;
  if (temperature <= 0.0)
    temperature = calibrateTemperature(problem, rng, opts.initialAcceptance,
                                       std::max<std::size_t>(32, movesPerStage / 2));
  stats.initialTemperature = temperature;

  double current = problem.cost();
  double best = current;
  if (problem.snapshot) problem.snapshot();

  const double tStop = temperature * opts.finalTemperature;
  std::size_t stagnant = 0;

  while (temperature > tStop && stagnant < opts.stagnationStages) {
    bool improvedThisStage = false;
    for (std::size_t m = 0; m < movesPerStage; ++m) {
      problem.propose(rng);
      ++stats.movesAttempted;
      const double next = problem.cost();
      const double delta = next - current;
      const bool accept = delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
      if (accept) {
        ++stats.movesAccepted;
        current = next;
        if (current < best - 1e-15 * std::abs(best)) {
          best = current;
          improvedThisStage = true;
          if (problem.snapshot) problem.snapshot();
        }
      } else {
        problem.undo();
      }
    }
    ++stats.stages;
    stagnant = improvedThisStage ? 0 : stagnant + 1;
    temperature *= opts.coolingRate;
  }

  stats.bestCost = best;
  // Bulk-record the run's move traffic: one registry touch per anneal, not
  // per move, keeps the inner loop free of even relaxed atomics.
  static const auto cMoves =
      core::metrics::registry().counter("anneal.moves_attempted");
  static const auto cAccepts =
      core::metrics::registry().counter("anneal.moves_accepted");
  static const auto cStages = core::metrics::registry().counter("anneal.stages");
  core::metrics::add(cMoves, stats.movesAttempted);
  core::metrics::add(cAccepts, stats.movesAccepted);
  core::metrics::add(cStages, stats.stages);
  return stats;
}

}  // namespace amsyn::num
