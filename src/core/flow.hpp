// The hierarchical performance-driven design methodology of section 2.1 —
// the loop "most experimental analog CAD systems" run:
//
//   top-down:   topology selection -> specification translation (sizing)
//               -> design verification (simulation)
//   bottom-up:  layout generation -> detailed verification after extraction
//
// with redesign iterations when verification fails at any point, including
// the still-open problem the paper flags in section 3.1: "closing the loop"
// from cell layout back to circuit synthesis.  Here the close is concrete:
// post-layout failures feed measured model/parasitic corrections back into
// the spec bounds handed to the sizer (margin-inflation retargeting) and
// the whole flow re-runs.
//
// The flow itself is a staged graph (core/flowgraph.hpp): each phase above
// is one FlowStage, and a FlowEngine executes the declared stage sequence
// with the redesign loop, retargeting, and calibration feedback as engine
// policy.  synthesizeAmplifier assembles the amplifier stage graph;
// synthesizeBatch fans many spec sets across the work-stealing pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/celllayout.hpp"
#include "core/evalstatus.hpp"
#include "core/performances.hpp"
#include "core/resilience.hpp"
#include "sizing/spec.hpp"
#include "sizing/synth.hpp"
#include "topology/library.hpp"

namespace amsyn::core {

class ExecutionContext;  // core/context.hpp

/// AC verification testbench descriptor: which node the verification stage
/// probes and the frequency grid it sweeps.  Defaults reproduce the classic
/// open-loop opamp bench (probe "out", 1 Hz .. 1 GHz, 6 points/decade).
struct AcTestbench {
  std::string probeNode = "out";
  double acStartHz = 1.0;
  double acStopHz = 1e9;
  std::size_t acPointsPerDecade = 6;
};

/// Explicit tri-state configuration of the process-wide evaluation cache
/// (core/evalcache.hpp) applied at flow start.  Replaces the former
/// `evalCacheCapacity` sentinel overload (0 = keep, SIZE_MAX = disable).
/// The cache only changes *speed*, never results — see core/evalcache.hpp
/// for the correctness contract.
struct EvalCacheOptions {
  enum class Mode {
    Default,   ///< keep the current / AMSYN_EVAL_CACHE* env-derived setting
    Disabled,  ///< switch the cache off for this process
    Bounded,   ///< set the capacity to `capacity` entries
  };
  Mode mode = Mode::Default;
  /// Max resident entries; meaningful only in Bounded mode (0 restores the
  /// default / AMSYN_EVAL_CACHE_CAPACITY value, per EvalCache::setCapacity).
  std::size_t capacity = 0;

  static EvalCacheOptions defaults() { return {}; }
  static EvalCacheOptions disabled() { return {Mode::Disabled, 0}; }
  static EvalCacheOptions bounded(std::size_t entries) {
    return {Mode::Bounded, entries};
  }
};

/// Which linear-solver kernel the simulation analyses use (sim/solver.hpp).
/// Default keeps the current / AMSYN_SOLVER env-derived mode; the other
/// values set the process-wide mode at flow start.  Like the eval cache,
/// this knob only changes *speed*: the sparse path replays the dense
/// kernel's arithmetic bit-exactly (see numeric/sparse_lu.hpp), so flow
/// results are identical across modes.
enum class SolverOption {
  Default,  ///< keep the current / AMSYN_SOLVER env-derived setting
  Auto,     ///< sparse above a size threshold, dense below
  Dense,    ///< always the dense LU kernel
  Sparse,   ///< always the sparse path (dense fallback on guard trips)
};

struct FlowOptions {
  double loadCap = 5e-12;
  std::size_t maxRedesigns = 4;   ///< layout->synthesis loop closures
  double marginInflation = 1.30;  ///< spec tightening per redesign
  sizing::SynthesisOptions synthesis;
  CellLayoutOptions layout;
  /// Verification testbench: probe node + AC sweep grid used by both the
  /// pre- and post-layout verify stages.
  AcTestbench testbench;
  std::uint64_t seed = 1;
  /// Candidate space the topology-select stage ranks: the legacy
  /// hand-written pair, the generated functional-block composition space
  /// (topology/compose.hpp), or Default = the AMSYN_TOPOLOGY_SPACE env
  /// choice (unset -> Legacy).  Both spaces contain the legacy cells with
  /// bit-identical models, so flows whose specs the legacy cells win are
  /// identical across spaces.
  topology::TopologySpace topologySpace = topology::TopologySpace::Default;
  EvalCacheOptions evalCache;
  SolverOption solver = SolverOption::Default;
  SurrogateOption surrogate = SurrogateOption::Off;  ///< unread; perfbench/ sets it
  /// Per-job wall-clock deadline in ms (0 = the AMSYN_JOB_DEADLINE_MS env
  /// var, else none).  The engine checks it at every stage boundary and
  /// arms it on the verification measurements' budgets, so a livelocked
  /// evaluation stops at the next strided cancel point.  Expiry is
  /// *terminal* for the job: the flow returns immediately with
  /// failureStatus deadline_expired, skipping remaining redesigns.  A
  /// deadline trips at a machine-dependent point by nature — leave it 0
  /// where bit-reproducible batches matter.
  std::uint64_t deadlineMs = 0;
  /// Per-stage retry policy (default: no retries, exactly the pre-existing
  /// behavior).  A failed stage whose status the policy classifies as
  /// transient re-runs — after a deterministic seeded backoff — up to
  /// maxAttempts total executions; every execution appends its own
  /// StageRecord and counts into core.flow.retry.*.
  RetryPolicy stageRetry;
};

/// Record of one verification: measured performances vs the spec verdict.
struct VerificationRecord {
  std::string stage;  ///< "pre-layout" or "post-layout"
  std::size_t attempt = 0;  ///< the redesign attempt that produced it
  sizing::Performance measured;
  bool passed = false;
};

/// How one stage execution ended (see core/flowgraph.hpp for the stage
/// interface).  Skipped means the stage had nothing to contribute but the
/// attempt continues (e.g. the optimizer found no candidate — the plan
/// provider may still produce one); Failed aborts the attempt and triggers
/// a redesign.
enum class StageStatus : std::uint8_t { Passed, Failed, Skipped };

/// Stable lowercase name ("passed" / "failed" / "skipped").
const char* stageStatusName(StageStatus s);

/// Structured record of one stage execution inside one attempt, appended to
/// FlowResult::stageRecords by the engine and serialized by
/// flowRunReportJson.  `seconds` is the span-derived wall-clock duration —
/// the only nondeterministic field.
struct StageRecord {
  std::string name;       ///< stage name, e.g. "verify-pre-layout"
  std::size_t attempt = 0;
  StageStatus status = StageStatus::Passed;
  std::string detail;     ///< failure/skip reason; empty on pass
  EvalStatus evalStatus = EvalStatus::Ok;
  double seconds = 0.0;
};

struct FlowResult {
  bool success = false;
  std::string topology;
  std::vector<double> designPoint;
  circuit::Netlist schematic;           ///< sized testbench netlist
  CellLayoutResult cell;                ///< layout + extraction
  std::vector<VerificationRecord> verifications;
  /// Per-stage execution trail across all attempts, in execution order.
  std::vector<StageRecord> stageRecords;
  std::size_t redesigns = 0;
  std::string failureReason;
  /// Structured companion to failureReason: which evaluation-machinery
  /// failure (if any) ended the last attempt.  Ok both on success and when
  /// the flow failed for design reasons (specs simply not met).
  EvalStatus failureStatus = EvalStatus::Ok;
};

/// Run the complete amplifier flow: select a topology from the built-in
/// library, size it, verify by simulation, lay it out, extract, verify
/// post-layout, and iterate with retargeted specs if the parasitics broke a
/// spec.  Specs use the standard performance names (gain_db, ugf, pm,
/// power, ...).  Thin wrapper over FlowEngine + amplifierStageGraph()
/// (core/flowgraph.hpp).
FlowResult synthesizeAmplifier(const sizing::SpecSet& specs, const circuit::Process& proc,
                               const FlowOptions& opts = {});

/// Serving-scale entry point: run one amplifier flow per spec set, fanned
/// across the shared work-stealing pool.  Deterministic: result i is
/// bit-identical to `synthesizeAmplifier(batch[i], proc,
/// batchItemOptions(opts, i))` at any AMSYN_THREADS, cache on or off
/// (tests/flowgraph_test.cpp proves this differentially).  All designs
/// share the process-wide evaluation cache, so overlapping candidate
/// evaluations across the batch are paid for once.
std::vector<FlowResult> synthesizeBatch(const std::vector<sizing::SpecSet>& batch,
                                        const circuit::Process& proc,
                                        const FlowOptions& opts = {});

/// The options synthesizeBatch hands design `index`: the base options with
/// the seed moved onto the decorrelated per-task RNG stream
/// num::Rng::streamSeed(base.seed, index).  Exposed so callers (and the
/// differential test) can reproduce any batch entry with a sequential
/// synthesizeAmplifier call.
FlowOptions batchItemOptions(const FlowOptions& base, std::size_t index);

/// Measure an amplifier testbench netlist by simulation (shared by the flow
/// and the benches): gain_db, ugf, pm, power.  The testbench descriptor
/// selects the probe node and AC grid; the default reproduces the classic
/// bench.  The optional budget is threaded into every analysis (the flow
/// passes its job's DeadlineBudget so deadline expiry interrupts a
/// measurement at the next Newton-loop cancel point); a budget-stopped
/// measurement comes back infeasible with the budget's exhaustionStatus().
sizing::Performance measureAmplifier(const circuit::Netlist& net,
                                     const circuit::Process& proc,
                                     const AcTestbench& tb = {},
                                     EvalBudget* budget = nullptr);

/// Structured JSON run report for a completed flow: outcome, per-stage
/// verification verdicts and stage records, plus the process-wide
/// metrics-registry snapshot and trace-span aggregate (schema in
/// core/runreport.hpp).
std::string flowRunReportJson(const FlowResult& result);

/// Context-sliced variant: additionally emits "ctx.<counter>" values for
/// every metric delta the given execution context recorded (its metrics
/// slice) — the per-tenant view a multi-job daemon reports next to the
/// process-wide snapshot.  With no slice (the ambient context) the output
/// is byte-identical to the single-argument form.
std::string flowRunReportJson(const FlowResult& result, const ExecutionContext& ctx);

}  // namespace amsyn::core
