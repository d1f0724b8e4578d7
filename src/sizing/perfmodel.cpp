#include "sizing/perfmodel.hpp"

#include <cmath>

#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x) {
  return safeEvaluate(model, x, core::ExecutionContext::current());
}

Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x,
                         core::ExecutionContext& ctx) {
  // Memoized fast path: the cache sits here — below every hot consumer
  // (sizing::CostFunction, topology/genetic batches, manufacture corner
  // hunts all evaluate through safeEvaluate) — so one integration point
  // covers all three loops the paper's runtime analysis names.  The cache
  // resolves through the execution context: the shared process-wide
  // instance by default, a tenant's private one when its context asked for
  // isolation.
  auto& cache = ctx.evalCache();
  std::optional<core::cache::Digest128> key;
  if (cache.enabled()) {
    if (model.evalCost() == EvalCost::Cheap) {
      // Evaluation ~ lookup cost: skip the digest, the lookup, *and* the
      // insert (key stays nullopt below).  Counted so hit-rate math over
      // core.cache.* stays honest about what the cache never saw.
      cache.noteBypass();
    } else {
      key = model.cacheKey(x);
      if (key) {
        core::cache::CachedEval cached;
        if (cache.lookup(*key, x, cached)) return std::move(cached.performance);
      }
    }
  }

  Performance perf;
  try {
    perf = model.evaluate(x);
  } catch (...) {
    // A throwing candidate is infeasible data, not a fatal error: the
    // optimization loop must keep iterating past it (FRIDGE-style robust
    // cost evaluation).  out_of_memory verdicts are environmental, not a
    // property of the candidate, so they are never cached — the same point
    // may evaluate fine once the pressure subsides.
    const EvalStatus st = core::classifyCurrentException();
    perf.clear();
    markInfeasible(perf, st);
    sim::recordEvalFailure(st);
    if (key && st != EvalStatus::OutOfMemory) cache.insert(*key, x, {perf, st});
    return perf;
  }
  for (const auto& [name, value] : perf) {
    if (std::isnan(value)) {
      markInfeasible(perf, EvalStatus::NanDetected);
      sim::recordEvalFailure(EvalStatus::NanDetected);
      break;
    }
  }
  // Cache the full payload, taxonomy keys included: a later hit on a failed
  // candidate reports the same _infeasible/_status data the first
  // evaluation did (the failure tally itself is recorded once, above).
  if (key) cache.insert(*key, x, {perf, performanceStatus(perf)});
  return perf;
}

}  // namespace amsyn::sizing
