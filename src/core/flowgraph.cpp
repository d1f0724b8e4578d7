#include "core/flowgraph.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>
#include <utility>

#include "core/evalcache.hpp"
#include "core/trace.hpp"
#include "knowledge/opamp_plans.hpp"
#include "sim/fault.hpp"
#include "sim/solver.hpp"
#include "sizing/builders.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"
#include "topology/select.hpp"

namespace amsyn::core {

namespace {

/// Spec tolerance the verification stages grant: a measurement within 15%
/// (normalized) of the bound still passes, absorbing model/sim noise.
constexpr double kVerifyTolerance = 0.15;

/// Constraint specs the simulator can actually judge (the shared
/// electrical-performance table).
sizing::SpecSet filterElectrical(const sizing::SpecSet& specs) {
  sizing::SpecSet electrical;
  for (const auto& s : specs.specs()) {
    if (s.isObjective()) continue;
    if (isElectricalPerformance(s.performance))
      electrical.require(s.performance, s.kind, s.bound, s.weight);
  }
  return electrical;
}

/// Failure reason with the structured status appended when one exists.
std::string withStatusSuffix(std::string reason, EvalStatus st) {
  if (st != EvalStatus::Ok) reason += std::string(": ") + evalStatusName(st);
  return reason;
}

/// Counters shared by every flow, registered eagerly so the run-report
/// counter schema does not depend on which entry point ran first.
struct FlowCounters {
  metrics::CounterId attempts;
  metrics::CounterId batchDesigns;
  metrics::CounterId retryAttempts;    ///< stage re-executions granted
  metrics::CounterId retrySuccesses;   ///< stages that passed on a re-execution
  metrics::CounterId retryExhausted;   ///< stages still failed after >=1 retry
  metrics::CounterId deadlineExpired;  ///< flows terminated by their deadline
};
const FlowCounters& flowCounters() {
  static const FlowCounters ids = {
      metrics::registry().counter("core.flow.attempts"),
      metrics::registry().counter("core.flow.batch.designs"),
      metrics::registry().counter("core.flow.retry.attempts"),
      metrics::registry().counter("core.flow.retry.successes"),
      metrics::registry().counter("core.flow.retry.exhausted"),
      metrics::registry().counter("core.flow.deadline.expired"),
  };
  return ids;
}

/// Sleep for the retry backoff, never past the job deadline.
void backoffSleep(std::uint64_t delayMs, const DeadlineBudget& deadline) {
  if (delayMs == 0) return;
  if (deadline.armed()) {
    const std::int64_t leftNs = deadline.deadlineNs() - EvalBudget::nowNs();
    if (leftNs <= 0) return;
    delayMs = std::min<std::uint64_t>(
        delayMs, static_cast<std::uint64_t>(leftNs / 1'000'000) + 1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
}

}  // namespace

void applyEvalCacheOptions(const EvalCacheOptions& opts) {
  applyEvalCacheOptions(opts, ExecutionContext::current());
}

void applyEvalCacheOptions(const EvalCacheOptions& opts, ExecutionContext& ctx) {
  switch (opts.mode) {
    case EvalCacheOptions::Mode::Default:
      break;
    case EvalCacheOptions::Mode::Disabled:
      ctx.evalCache().setEnabled(false);
      break;
    case EvalCacheOptions::Mode::Bounded:
      ctx.evalCache().setCapacity(opts.capacity);
      break;
  }
}

void applySolverOption(SolverOption opt) {
  applySolverOption(opt, ExecutionContext::current());
}

void applySolverOption(SolverOption opt, ExecutionContext& ctx) {
  switch (opt) {
    case SolverOption::Default:
      break;
    case SolverOption::Auto:
      ctx.setSolverKind(SolverKind::Auto);
      break;
    case SolverOption::Dense:
      ctx.setSolverKind(SolverKind::Dense);
      break;
    case SolverOption::Sparse:
      ctx.setSolverKind(SolverKind::Sparse);
      break;
  }
}

// ---------------------------------------------------------------------------
// FlowEngine

FlowEngine::FlowEngine(std::vector<std::unique_ptr<FlowStage>> stages)
    : rules_(defaultRetargetRules()) {
  (void)flowCounters();  // eager registration (schema stability)
  auto& registry = metrics::registry();
  stages_.reserve(stages.size());
  for (auto& stage : stages) {
    StageSlot slot;
    const std::string name = stage->name();
    slot.spanName = "stage." + name;
    slot.runs = registry.counter("core.flow.stage." + name + ".runs");
    slot.failures = registry.counter("core.flow.stage." + name + ".failures");
    slot.stage = std::move(stage);
    stages_.push_back(std::move(slot));
  }
}

void FlowEngine::setRetargetRules(std::vector<RetargetRule> rules) {
  rules_ = std::move(rules);
}

std::vector<RetargetRule> FlowEngine::defaultRetargetRules() {
  // Parasitics and model error mainly eat bandwidth and phase margin, so
  // redesigns hand the sizer bounds corrected by what verification actually
  // measured (rather than blind margins), plus a small safety factor that
  // grows per attempt.
  std::vector<RetargetRule> rules;
  RetargetRule ugf;
  ugf.performance = "ugf";
  ugf.kind = sizing::SpecKind::GreaterEqual;
  ugf.correction = RetargetRule::Correction::DivideByRatio;
  rules.push_back(std::move(ugf));
  RetargetRule pm;
  pm.performance = "pm";
  pm.kind = sizing::SpecKind::GreaterEqual;
  pm.correction = RetargetRule::Correction::AddDelta;
  pm.boundCap = 80.0;
  pm.perAttemptPad = 2.0;
  rules.push_back(std::move(pm));
  return rules;
}

sizing::SpecSet FlowEngine::retarget(const sizing::SpecSet& specs,
                                     const std::vector<RetargetRule>& rules,
                                     const CalibrationStore& cal,
                                     std::size_t attempt) {
  const double safety = 1.0 + 0.05 * static_cast<double>(attempt);
  sizing::SpecSet target;
  for (const auto& s : specs.specs()) {
    sizing::Spec t = s;
    if (!t.isObjective()) {
      for (const auto& rule : rules) {
        if (t.performance != rule.performance || t.kind != rule.kind) continue;
        switch (rule.correction) {
          case RetargetRule::Correction::DivideByRatio:
            t.bound =
                t.bound / std::max(cal.ratio(t.performance), rule.ratioFloor) * safety;
            break;
          case RetargetRule::Correction::AddDelta:
            t.bound = std::min(t.bound + cal.delta(t.performance) * safety +
                                   rule.perAttemptPad * static_cast<double>(attempt),
                               rule.boundCap);
            break;
        }
      }
    }
    if (t.isObjective())
      (t.kind == sizing::SpecKind::Minimize)
          ? target.minimize(t.performance, t.weight, t.norm)
          : target.maximize(t.performance, t.weight, t.norm);
    else
      target.require(t.performance, t.kind, t.bound, t.weight);
  }
  return target;
}

FlowResult FlowEngine::run(const sizing::SpecSet& specs, const circuit::Process& proc,
                           const FlowOptions& opts) {
  return run(specs, proc, opts, ExecutionContext::current());
}

FlowResult FlowEngine::run(const sizing::SpecSet& specs, const circuit::Process& proc,
                           const FlowOptions& opts, ExecutionContext& exec) {
  AMSYN_SPAN("flow");
  ContextScope contextScope(exec);
  applyEvalCacheOptions(opts.evalCache, exec);
  applySolverOption(opts.solver, exec);

  DesignContext ctx(specs, proc, opts);
  ctx.exec = &exec;
  ctx.electrical = filterElectrical(specs);
  DeadlineBudget jobDeadline(0, effectiveDeadlineMs(opts.deadlineMs));
  ctx.jobBudget = &jobDeadline;

  // Deadline expiry (real or injected by the chaos schedule) is terminal:
  // the allowance covered the whole job, so neither stage retries nor
  // redesign attempts may follow it.
  const auto deadlineHit = [&] {
    return jobDeadline.expired() ||
           sim::takeBatchFault(sim::FaultSite::DeadlineCheck);
  };
  const auto expireNow = [&](const std::string& where) {
    metrics::add(flowCounters().deadlineExpired);
    ctx.result.success = false;
    ctx.result.failureReason = "job deadline expired at " + where;
    ctx.result.failureStatus = EvalStatus::DeadlineExpired;
  };

  for (std::size_t attempt = 0; attempt <= opts.maxRedesigns; ++attempt) {
    metrics::add(flowCounters().attempts);
    ctx.attempt = attempt;
    if (attempt > 0) ++ctx.result.redesigns;
    ctx.target = retarget(specs, rules_, ctx.calibration, attempt);
    ctx.candidates.clear();

    bool attemptFailed = false;
    for (auto& slot : stages_) {
      if (deadlineHit()) {
        expireNow("stage boundary '" + slot.stage->name() + "'");
        return std::move(ctx.result);
      }
      // Per-stage retry loop: each execution appends its own StageRecord,
      // so the trail shows exactly what ran and why it ran again.
      for (std::size_t execution = 1;; ++execution) {
        metrics::add(slot.runs);
        const std::uint64_t t0 = trace::monotonicNowNs();
        StageOutcome outcome;
        if (sim::takeBatchFault(sim::FaultSite::StageRun)) {
          outcome = StageOutcome::fail("injected stage fault (chaos schedule)",
                                       EvalStatus::InternalError);
        } else {
          AMSYN_SPAN(slot.spanName.c_str());
          outcome = slot.stage->run(ctx);
        }
        StageRecord record;
        record.name = slot.stage->name();
        record.attempt = attempt;
        record.status = outcome.status;
        record.detail = outcome.detail;
        record.evalStatus = outcome.evalStatus;
        record.seconds = static_cast<double>(trace::monotonicNowNs() - t0) * 1e-9;
        ctx.result.stageRecords.push_back(std::move(record));

        if (outcome.status != StageStatus::Failed) {
          if (execution > 1) metrics::add(flowCounters().retrySuccesses);
          break;
        }
        metrics::add(slot.failures);
        if (outcome.evalStatus == EvalStatus::DeadlineExpired ||
            jobDeadline.expired()) {
          expireNow("stage '" + slot.stage->name() + "'");
          return std::move(ctx.result);
        }
        if (!opts.stageRetry.shouldRetry(outcome.evalStatus, execution)) {
          if (execution > 1) metrics::add(flowCounters().retryExhausted);
          ctx.result.failureReason = outcome.detail;
          ctx.result.failureStatus = outcome.evalStatus;
          attemptFailed = true;
          break;  // redesign with the updated calibration
        }
        metrics::add(flowCounters().retryAttempts);
        backoffSleep(opts.stageRetry.backoff.delayMs(opts.seed, execution),
                     jobDeadline);
      }
      if (attemptFailed) break;
    }
    if (!attemptFailed) {
      ctx.result.success = true;
      ctx.result.failureReason.clear();
      ctx.result.failureStatus = EvalStatus::Ok;
      return std::move(ctx.result);
    }
  }
  return std::move(ctx.result);
}

// ---------------------------------------------------------------------------
// Concrete stages

StageOutcome TopologySelectStage::run(DesignContext& ctx) {
  // The process-lifetime memo, asked on every run: it keys on the process
  // content and the context-resolved space, so neither a mutated Process
  // nor a change of context can serve a stale library.
  const auto& library =
      topology::amplifierLibrary(ctx.proc, ctx.opts.loadCap, ctx.opts.topologySpace);

  sizing::SynthesisOptions sopts = ctx.opts.synthesis;
  sopts.seed = ctx.opts.seed + ctx.attempt;
  // Redesigns chase a progressively tighter corner of the design space;
  // give the annealer a bigger budget each round.
  if (ctx.attempt > 0) {
    sopts.anneal.movesPerStage =
        std::max<std::size_t>(sopts.anneal.movesPerStage, 400 * (ctx.attempt + 1));
    sopts.anneal.stagnationStages = 20;
    sopts.refineEvaluations = std::max<std::size_t>(sopts.refineEvaluations, 800);
  }

  const auto sel = topology::selectAndSize(library, ctx.target, sopts);
  if (!sel.success)
    return StageOutcome::skip("optimization-based sizing produced no candidate");
  CandidateDesign cand;
  cand.topology = sel.topology;
  cand.x = sel.sizing.x;
  cand.predicted = sel.sizing.performance;
  ctx.candidates.push_back(std::move(cand));
  return StageOutcome::pass();
}

StageOutcome PlanCandidateStage::run(DesignContext& ctx) {
  // Plan candidate from the retargeted bounds; the first candidate that
  // passes pre-layout verification wins, so this rides alongside the
  // optimizer rather than replacing it.
  const auto planIn = knowledge::opampPlanInputs(ctx.target, ctx.opts.loadCap);
  if (!planIn)
    return StageOutcome::skip("specs carry no gain_db+ugf pair for the design plan");
  const auto plan = knowledge::twoStageOpampPlan();
  const auto pres = plan.execute(ctx.proc, *planIn);
  if (!pres.success) return StageOutcome::skip("design plan backtracking failed");
  const sizing::TwoStageEquationModel model(ctx.proc, ctx.opts.loadCap);
  CandidateDesign cand;
  cand.topology = "two-stage-miller";
  cand.x = knowledge::extractTwoStageDesign(pres.context);
  cand.predicted = model.evaluate(cand.x);
  ctx.candidates.push_back(std::move(cand));
  return StageOutcome::pass();
}

StageOutcome BuildStage::run(DesignContext& ctx) {
  if (ctx.candidates.empty())
    return StageOutcome::fail("sizing failed to meet the (possibly inflated) specs",
                              EvalStatus::Ok);  // design failure, not machinery
  for (auto& cand : ctx.candidates) {
    const auto* builder = sizing::NetlistBuilderRegistry::instance().find(cand.topology);
    if (!builder)
      return StageOutcome::fail(
          "no netlist builder registered for topology '" + cand.topology + "'",
          EvalStatus::BadTopology);
    cand.netlist = (*builder)(cand.x, ctx.proc,
                              sizing::OpampTestbench{ctx.opts.loadCap, 2.2, true});
    cand.built = true;
  }
  return StageOutcome::pass();
}

StageOutcome VerifyStage::run(DesignContext& ctx) {
  // The verify measurements are the flow's serial simulator work: thread
  // the job deadline into them and open the solver hooks to the batch
  // fault schedule (see sim/fault.hpp for why only this window may).
  EvalBudget* budget = ctx.jobBudget ? &ctx.jobBudget->budget() : nullptr;
  sim::SolverFaultWindow faultWindow;
  if (phase_ == VerifyPhase::PreLayout) {
    VerificationRecord pre;
    pre.stage = "pre-layout";
    pre.attempt = ctx.attempt;
    bool any = false;
    circuit::Netlist schematic;
    for (auto& cand : ctx.candidates) {
      const auto measured =
          measureAmplifier(cand.netlist, ctx.proc, ctx.opts.testbench, budget);
      const bool passed = !measured.count("_infeasible") &&
                          ctx.electrical.satisfied(measured, kVerifyTolerance);
      // Update the model-calibration terms from this measurement.
      if (measured.count("ugf") && cand.predicted.count("ugf") &&
          cand.predicted.at("ugf") > 0)
        ctx.calibration.recordRatio(
            "ugf", kModelCalibration, measured.at("ugf") / cand.predicted.at("ugf"));
      if (measured.count("pm") && cand.predicted.count("pm"))
        ctx.calibration.recordDelta(
            "pm", kModelCalibration,
            std::max(0.0, cand.predicted.at("pm") - measured.at("pm")));
      if (!any || passed) {
        pre.measured = measured;
        pre.passed = passed;
        schematic = std::move(cand.netlist);
        ctx.result.topology = cand.topology;
        ctx.result.designPoint = cand.x;
        any = true;
      }
      if (passed) break;
    }
    ctx.result.schematic = std::move(schematic);
    ctx.result.verifications.push_back(pre);
    if (!pre.passed) {
      const EvalStatus st = sizing::performanceStatus(pre.measured);
      return StageOutcome::fail(
          withStatusSuffix("pre-layout verification failed (model/sim mismatch)", st),
          st);
    }
    return StageOutcome::pass();
  }

  // Post-layout: measure the annotated netlist against the same specs and
  // record what the parasitics cost relative to this attempt's pre-layout
  // measurement.
  const VerificationRecord* preRec = nullptr;
  for (auto it = ctx.result.verifications.rbegin();
       it != ctx.result.verifications.rend(); ++it)
    if (it->stage == "pre-layout") {
      preRec = &*it;
      break;
    }

  VerificationRecord post;
  post.stage = "post-layout";
  post.attempt = ctx.attempt;
  post.measured = measureAmplifier(ctx.result.cell.annotated, ctx.proc,
                                   ctx.opts.testbench, budget);
  post.passed = !post.measured.count("_infeasible") &&
                ctx.electrical.satisfied(post.measured, kVerifyTolerance);
  if (preRec) {
    if (post.measured.count("ugf") && preRec->measured.count("ugf") &&
        preRec->measured.at("ugf") > 0)
      ctx.calibration.recordRatio(
          "ugf", kLayoutCalibration,
          post.measured.at("ugf") / preRec->measured.at("ugf"));
    if (post.measured.count("pm") && preRec->measured.count("pm"))
      ctx.calibration.recordDelta(
          "pm", kLayoutCalibration,
          std::max(0.0, preRec->measured.at("pm") - post.measured.at("pm")));
  }
  ctx.result.verifications.push_back(post);
  if (!post.passed) {
    const EvalStatus st = sizing::performanceStatus(post.measured);
    return StageOutcome::fail(
        withStatusSuffix("post-layout verification failed; closing the loop", st), st);
  }
  return StageOutcome::pass();
}

StageOutcome LayoutStage::run(DesignContext& ctx) {
  CellLayoutOptions lopts = ctx.opts.layout;
  lopts.seed = ctx.opts.seed + ctx.attempt;
  try {
    ctx.result.cell = layoutCellGeometry(ctx.result.schematic, ctx.proc, lopts);
  } catch (const std::exception& e) {
    return StageOutcome::fail(std::string("cell layout threw: ") + e.what(),
                              classifyCurrentException());
  } catch (...) {
    return StageOutcome::fail("cell layout threw", classifyCurrentException());
  }
  if (!ctx.result.cell.success)
    return StageOutcome::fail("cell layout failed (placement/routing)", EvalStatus::Ok);
  return StageOutcome::pass();
}

StageOutcome ExtractStage::run(DesignContext& ctx) {
  extractCell(ctx.result.schematic, ctx.proc, ctx.result.cell);
  return StageOutcome::pass();
}

std::vector<std::unique_ptr<FlowStage>> amplifierStageGraph() {
  std::vector<std::unique_ptr<FlowStage>> stages;
  stages.push_back(std::make_unique<TopologySelectStage>());
  stages.push_back(std::make_unique<PlanCandidateStage>());
  stages.push_back(std::make_unique<BuildStage>());
  stages.push_back(std::make_unique<VerifyStage>(VerifyPhase::PreLayout));
  stages.push_back(std::make_unique<LayoutStage>());
  stages.push_back(std::make_unique<ExtractStage>());
  stages.push_back(std::make_unique<VerifyStage>(VerifyPhase::PostLayout));
  return stages;
}

}  // namespace amsyn::core
