#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "sim/solver.hpp"
#include "sim/stats.hpp"

namespace amsyn::sim {

namespace {

/// How one timestep's Newton iteration ended.  Failed (singular or NaN)
/// steps feed the step-halving retry loop; Budget aborts the whole sweep.
enum class StepOutcome { Converged, Failed, Budget };

bool allFinite(const num::VecD& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

/// One timestep's Newton iteration.  `factored` is the LU cache keyed on
/// the Jacobian's values: linear circuits (and quasi-linear stretches of
/// nonlinear ones) assemble the identical Jacobian at every Newton
/// iteration and every timestep of a fixed-h sweep — the companion
/// conductances depend only on (h, integration method) — so only the RHS
/// moves.  Re-factoring is then pure waste: an O(nnz) value comparison
/// replaces the factorization, on either LU kernel.
StepOutcome newtonStep(const Mna& mna, LinearSolver<double>& ls,
                       std::optional<std::vector<double>>& factored, num::VecD& x,
                       const AssemblyOptions& aopt, const TransientOptions& opts) {
  const std::size_t n = mna.size();
  num::VecD f(n);
  for (std::size_t it = 0; it < opts.maxNewton; ++it) {
    if (!consumeWork(opts.budget)) return StepOutcome::Budget;
    mna.assemble(x, aopt, &ls.values(), &f);
    // A poisoned iterate never recovers; bail to the halving loop now
    // instead of burning the remaining maxNewton iterations on NaNs.
    if (!allFinite(f)) return StepOutcome::Failed;
    if (factored && *factored == ls.values()) {
      recordLuReuse();
    } else {
      if (FaultInjector::threadLocal().takeLuFailure() || !ls.factor()) {
        factored.reset();
        return StepOutcome::Failed;
      }
      factored = ls.values();
      recordLuFactorization();
    }
    const num::VecD dx = ls.solve(f);
    if (!allFinite(dx)) return StepOutcome::Failed;
    double maxDx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double step = std::clamp(-dx[i], -1.0, 1.0);
      x[i] += step;
      maxDx = std::max(maxDx, std::abs(step));
    }
    if (maxDx < opts.vAbsTol) {
      mna.assemble(x, aopt, nullptr, &f);
      const double r = num::normInf(f);
      if (!std::isfinite(r)) return StepOutcome::Failed;
      if (r < opts.absTol) return StepOutcome::Converged;
    }
  }
  return StepOutcome::Failed;
}

}  // namespace

TransientResult transientAnalysis(const Mna& mna, const DcResult& op,
                                  const TransientOptions& opts) {
  AMSYN_SPAN("transient");
  static const auto cSolves =
      core::metrics::registry().counter("sim.tran_solves");
  core::metrics::add(cSolves);
  TransientResult res;
  if (!op.converged) {
    // A bad starting bias is infeasible data, not a programming error: the
    // optimizer sees an empty, incomplete waveform with the reason attached.
    res.status = op.status == core::EvalStatus::Ok ? core::EvalStatus::DcNoConvergence
                                                   : op.status;
    recordEvalFailure(res.status);
    return res;
  }
  res.time.push_back(0.0);
  res.states.push_back(op.x);

  // Seed companion states from the DC solution (zero element currents).
  CompanionStates companions = mna.updateCompanions(op.x, nullptr, opts.tStep, false);

  double t = 0.0;
  num::VecD x = op.x;
  bool firstStep = true;
  LinearSolver<double> ls(mna, "tran");
  // Values behind ls's current factorization; persists across timesteps, so
  // fixed-h sweeps of linear circuits factor once, then only solve.
  std::optional<std::vector<double>> factored;

  while (t < opts.tStop - 1e-18) {
    double h = std::min(opts.tStep, opts.tStop - t);
    bool accepted = false;
    for (std::size_t attempt = 0; attempt <= opts.maxHalvings; ++attempt) {
      AssemblyOptions aopt;
      aopt.time = t + h;
      aopt.timestep = h;
      aopt.trapezoidal = opts.trapezoidal && !firstStep;
      aopt.gmin = 1e-12;
      aopt.companions = &companions;

      num::VecD xTry = x;
      const StepOutcome out = newtonStep(mna, ls, factored, xTry, aopt, opts);
      if (out == StepOutcome::Budget) {
        res.completed = false;
        res.status = budgetStopStatus(opts.budget);
        recordEvalFailure(res.status);
        return res;  // partial waveform up to the last accepted point
      }
      if (out == StepOutcome::Converged) {
        companions = mna.updateCompanions(xTry, &companions, h, aopt.trapezoidal);
        x = std::move(xTry);
        t += h;
        res.time.push_back(t);
        res.states.push_back(x);
        static const auto cSteps =
            core::metrics::registry().counter("sim.tran_steps");
        core::metrics::add(cSteps);
        accepted = true;
        firstStep = false;
        break;
      }
      h *= 0.5;  // halve and retry
    }
    if (!accepted) {
      res.completed = false;
      res.status = core::EvalStatus::DcNoConvergence;
      recordEvalFailure(res.status);
      return res;  // give up; caller sees partial waveform
    }
  }
  res.completed = true;
  res.status = core::EvalStatus::Ok;
  return res;
}

std::vector<double> TransientResult::nodeWaveform(const Mna& mna,
                                                  const std::string& node) const {
  const auto id = mna.netlist().findNode(node);
  if (!id) throw std::invalid_argument("nodeWaveform: unknown node " + node);
  std::vector<double> out;
  out.reserve(states.size());
  for (const auto& x : states) out.push_back(mna.nodeVoltage(x, *id));
  return out;
}

}  // namespace amsyn::sim
