// The ledger workloads.  Each draws its inputs from the seed, calls only
// the public entry points (synthesizeAmplifier, robustSynthesize,
// worstCaseCorner; the traced flow runs FlowEngine over the stage graph
// synthesizeAmplifier is defined as), and checks what they return.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "layout/cell/place.hpp"
#include "layout/cell/route.hpp"
#include "ledger.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/simmodel.hpp"
#include "topology/library.hpp"

namespace perfbench {

using namespace amsyn;

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

std::map<std::string, std::uint64_t> counterSnapshot() {
  return core::metrics::registry().snapshot().counters;
}

void addDelta(std::map<std::string, std::uint64_t>& into,
              const std::map<std::string, std::uint64_t>& before,
              const std::map<std::string, std::uint64_t>& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value >= base) into[name] += value - base;  // occupancy gauges may shrink
  }
}

namespace {

constexpr double kLoadCap = 5e-12;
/// The flow's own acceptance tolerance for verification (flowgraph.cpp's
/// kVerifyTolerance): a re-measured design is held to the same standard.
constexpr double kVerifyTolerance = 0.15;

const circuit::Process& proc() { return circuit::defaultProcess(); }

void clearEvalCache() { core::ExecutionContext::current().evalCache().clear(); }

/// Track the largest eval-cache occupancy one traced design reached.
void notePeakCacheBytes(RunData& run) {
  const double bytes =
      static_cast<double>(core::ExecutionContext::current().evalCache().stats().bytes);
  run.values["evalcache.bytes"] = std::max(run.values["evalcache.bytes"], bytes);
}

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(6);
  o << v;
  return o.str();
}

// ---------------------------------------------------------------------------
// Flow helpers.

/// What a flow returned, reduced to the fields that must repeat bit for bit.
struct FlowPrint {
  bool success = false;
  std::string topology;
  std::size_t redesigns = 0;
  std::vector<double> x;
  std::vector<double> post;  ///< final verification: gain_db, ugf, pm, power
  double area = 0.0;
  double wire = 0.0;

  bool operator==(const FlowPrint& o) const {
    return success == o.success && topology == o.topology && redesigns == o.redesigns &&
           sameBits(x, o.x) && sameBits(post, o.post) && sameBits(area, o.area) &&
           sameBits(wire, o.wire);
  }
};

FlowPrint printOf(const core::FlowResult& r) {
  FlowPrint p;
  p.success = r.success;
  p.topology = r.topology;
  p.redesigns = r.redesigns;
  p.x = r.designPoint;
  if (!r.verifications.empty()) {
    const auto& m = r.verifications.back().measured;
    for (const char* k : {"gain_db", "ugf", "pm", "power"}) {
      const auto it = m.find(k);
      p.post.push_back(it == m.end() ? std::nan("") : it->second);
    }
  }
  p.area = r.cell.areaLambda2;
  p.wire = r.cell.wirelengthLambda;
  return p;
}

/// Output check of one successful flow: re-measure its annotated netlist
/// against the original specs; keep its power and area.
void auditFlow(RunData& run, const core::FlowResult& r, const sizing::SpecSet& specs,
               const core::FlowOptions& opts, const std::string& what) {
  if (!r.success) return;
  const auto measured = core::measureAmplifier(r.cell.annotated, proc(), opts.testbench);
  const bool ok =
      !measured.count("_infeasible") && specs.satisfied(measured, kVerifyTolerance);
  run.check("flow_remeasure_meets_specs", ok,
            what + ": re-measured annotated netlist misses its specs");
  run.powerW.push_back(r.verifications.back().measured.at("power"));
  run.areaLambda2.push_back(r.cell.areaLambda2);
}

/// What a flow that threw yields: a failed result carrying the message.
core::FlowResult thrownFlow(const std::string& what) {
  core::FlowResult r;
  r.failureReason = what;
  return r;
}

void countFlow(RunData& run, const core::FlowResult& r, bool fresh) {
  run.countDesign(fresh, !r.success,
                  (r.topology.empty() ? "" : r.topology + ": ") + r.failureReason);
}

/// Replay the layout stage's placement and routing on the components and
/// placement it returned, timing each; the replays must reproduce it.
void replayLayout(RunData& run, const core::FlowResult& r, const core::FlowOptions& opts,
                  long job) {
  if (!r.success) return;
  const auto& cell = r.cell;
  const auto before = counterSnapshot();
  if (cell.usedRowFallback) {
    run.values["layout.row_fallbacks"] += 1.0;
  } else {
    layout::PlacerOptions popts = opts.layout.placer;
    popts.seed = opts.seed + r.redesigns;  // the layout stage's per-attempt seed
    layout::Placement placed;
    {
      ScopedSpan span(run.spans, "replay.place", job);
      placed = layout::placeCells(cell.components, popts);
    }
    bool same = placed.instances.size() == cell.placement.instances.size() &&
                sameBits(placed.wirelength, cell.placement.wirelength) &&
                placed.boundingBox == cell.placement.boundingBox;
    for (std::size_t i = 0; same && i < placed.instances.size(); ++i) {
      const auto& a = placed.instances[i];
      const auto& b = cell.placement.instances[i];
      same = a.name == b.name && a.master == b.master &&
             a.placement.orient == b.placement.orient && a.placement.dx == b.placement.dx &&
             a.placement.dy == b.placement.dy;
    }
    run.check("replay_reproduces_placement", same,
              "placement replay differs at job " + std::to_string(job));
  }

  std::vector<layout::RouteNet> nets;
  for (const auto& [name, report] : cell.routing.nets) {
    (void)report;
    layout::RouteNet rn;
    rn.name = name;
    for (const auto& ov : opts.layout.netOverrides)
      if (ov.name == name) rn = ov;
    nets.push_back(rn);
  }
  layout::RouteResult routed;
  {
    ScopedSpan span(run.spans, "replay.route", job);
    routed = layout::routeCells(cell.placement.instances, nets, proc(), opts.layout.router);
  }
  bool sameNets = routed.nets.size() == cell.routing.nets.size();
  for (auto a = routed.nets.cbegin(), b = cell.routing.nets.cbegin();
       sameNets && a != routed.nets.end(); ++a, ++b)
    sameNets = a->first == b->first && a->second.routed == b->second.routed;
  run.check("replay_reproduces_routing",
            sameNets && sameBits(routed.totalLengthLambda, cell.routing.totalLengthLambda),
            "routing replay differs at job " + std::to_string(job));
  addDelta(run.replayCounters, before, counterSnapshot());
}

sizing::SpecSet flowSpecs(double gainDb, double ugf, double pm, double powerMax) {
  sizing::SpecSet s;
  s.atLeast("gain_db", gainDb)
      .atLeast("ugf", ugf)
      .atLeast("pm", pm)
      .atMost("power", powerMax)
      .minimize("power", 0.3, 1e-3);
  return s;
}

/// Knob values every flow pins through FlowOptions rather than the
/// AMSYN_* environment.
core::FlowOptions pinnedFlowOptions(topology::TopologySpace space, std::uint64_t seed) {
  core::FlowOptions o;
  o.loadCap = kLoadCap;
  o.topologySpace = space;
  o.evalCache = core::EvalCacheOptions::bounded(std::size_t{1} << 16);
  o.solver = core::SolverOption::Auto;
  o.surrogate = core::SurrogateOption::Off;
  o.deadlineMs = 0;
  o.seed = seed;
  return o;
}

std::map<std::string, std::string> flowKnobs(const char* space, std::size_t width) {
  return {{"flow.topology_space", space}, {"flow.solver", "auto"},
          {"flow.eval_cache", "bounded 65536, cleared per design"},
          {"flow.surrogate", "off"}, {"flow.deadline_ms", "0"},
          {"pool_threads", std::to_string(width)}};
}

// ---------------------------------------------------------------------------
// flow_legacy: synthesizeAmplifier around the quickstart point, width 1.

class FlowLegacy : public Workload {
 public:
  /// 72 flows; one pass over the pool takes about 25 s on a 4-vCPU host.
  static constexpr std::size_t kInputSets = 4;

  explicit FlowLegacy(std::uint64_t seed) : seed_(seed), prints_(kInputSets) {}
  std::size_t poolWidth() const override { return 1; }
  std::size_t inputSets() const override { return kInputSets; }
  std::map<std::string, std::string> knobs() const override { return flowKnobs("legacy", 1); }

  void setup(SetupTimes& t) override {
    const auto t0 = nowNs();
    (void)topology::amplifierLibrary(proc(), kLoadCap, topology::TopologySpace::Legacy);
    t.libraryBuildS = secondsSince(t0);
  }

  void untracedPass(RunData& run, std::size_t pass) override {
    const std::size_t set = inputSetOf(pass, kInputSets);
    const bool fresh = firstOfSet(pass, kInputSets);
    draw(set);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      clearEvalCache();
      const auto r = meteredCall(
          run.callSeconds, run.passCounters.back(),
          [&] { return core::synthesizeAmplifier(specs_[i], proc(), opts_[i]); }, thrownFlow);
      countFlow(run, r, fresh);
      const std::string what = "set " + std::to_string(set) + " spec " + std::to_string(i);
      if (!fresh) {
        run.check("flow_repeats_bit_identically", printOf(r) == prints_[set][i],
                  what + " changed between repetitions");
        continue;
      }
      prints_[set].push_back(printOf(r));
      auditFlow(run, r, specs_[i], opts_[i], what);
    }
  }

  void tracedPass(RunData& run) override {
    draw(0);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      clearEvalCache();
      const long job = static_cast<long>(i);
      const auto r = meteredCall(
          run.tracedCallSeconds, run.callCounters,
          [&] {
            ScopedSpan span(run.spans, "call.synthesizeAmplifier", job);
            core::FlowEngine engine(timedAmplifierGraph(run.spans, job));
            return engine.run(specs_[i], proc(), opts_[i]);
          },
          thrownFlow);
      notePeakCacheBytes(run);
      run.check("traced_flow_matches_untraced", printOf(r) == prints_[0][i],
                "spec " + std::to_string(i) + " differs between traced and untraced runs");
      replayLayout(run, r, opts_[i], job);
    }
  }

 private:
  /// One spec per cell of a 3 x 3 x 2 grid over gain 62-68 dB, UGF
  /// 2.5-4 MHz and PM 48-54 deg, power <= 5 mW minimized.
  void draw(std::size_t set) {
    InputRng rng(seed_, set);
    specs_.clear();
    opts_.clear();
    for (const auto& c : rng.grid({3, 3, 2})) {
      specs_.push_back(
          flowSpecs(62.0 + 6.0 * c[0], 2.5e6 + 1.5e6 * c[1], 48.0 + 6.0 * c[2], 5e-3));
      opts_.push_back(
          pinnedFlowOptions(topology::TopologySpace::Legacy, 1 + rng.next() % 100000));
    }
  }

  std::uint64_t seed_;
  std::vector<sizing::SpecSet> specs_;
  std::vector<core::FlowOptions> opts_;
  std::vector<std::vector<FlowPrint>> prints_;  ///< per input set
};

// ---------------------------------------------------------------------------
// robust_corners: robustSynthesize on the corner equation model, width 1
// (the paper's claim is about CPU time); the traced run replays input set
// 0 at width 4 for the pool's speedup.

/// The spec set of bench/bench_claim_corners.cpp.
sizing::SpecSet robustSpecs() {
  sizing::SpecSet s;
  s.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  return s;
}

/// robustSynthesize's own final audit accepts a design whose worst-corner
/// margin is above -1e-3 (manufacture/corners.cpp); the check holds it to
/// that, and the ledger counts margins in [-1e-3, 0) separately.
constexpr double kCornerMarginTolerance = -1e-3;

class RobustCorners : public Workload {
 public:
  static constexpr std::size_t kSeeds = 4;  ///< synthesis seeds per input set
  /// 80 designs; one pass over the pool takes about 28 s on a 4-vCPU host.
  static constexpr std::size_t kInputSets = 20;
  static constexpr std::size_t kWidth = 1;

  explicit RobustCorners(std::uint64_t seed) : seed_(seed), prints_(kInputSets) {}
  std::size_t poolWidth() const override { return kWidth; }
  std::size_t inputSets() const override { return kInputSets; }
  std::map<std::string, std::string> knobs() const override {
    return {{"model", "makeTwoStageCornerModel"},
            {"eval_cache", "cleared per design"},
            {"pool_threads", std::to_string(kWidth)}};
  }

  void setup(SetupTimes& t) override {
    const auto t0 = nowNs();
    (void)factory_(proc());
    t.processS += secondsSince(t0);
  }

  void untracedPass(RunData& run, std::size_t pass) override {
    const std::size_t set = inputSetOf(pass, kInputSets);
    const bool fresh = firstOfSet(pass, kInputSets);
    draw(set);
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const auto r = meteredDesign(i, run.callSeconds, run.passCounters.back(), nullptr);
      run.countDesign(fresh, !r.robustFeasibleAtCorners,
                      r.robust.x.empty() ? "exception from robustSynthesize"
                                         : "robust design not feasible at its worst corners");
      const std::string what = "synthesis seed " + std::to_string(seeds_[i]);
      if (!fresh) {
        run.check("robust_repeats_bit_identically", printOf(r) == prints_[set][i],
                  what + " changed between repetitions");
        continue;
      }
      prints_[set].push_back(printOf(r));
      if (!r.robustFeasibleAtCorners) continue;
      run.powerW.push_back(r.robust.performance.at("power"));
      for (const auto& spec : specs_.specs()) {
        if (spec.isObjective()) continue;
        const auto wc =
            manufacture::worstCaseCorner(factory_, proc(), space_, r.robust.x, spec);
        run.check("robust_corner_margins_within_tolerance",
                  wc.margin >= kCornerMarginTolerance,
                  what + " " + spec.describe() + " margin " + fmt(wc.margin));
        if (wc.margin < 0.0) run.values["robust.margins_below_zero"] += 1.0;
        run.values["robust.margins_audited"] += 1.0;
      }
    }
  }

  void tracedPass(RunData& run) override {
    draw(0);
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const auto r = meteredDesign(i, run.tracedCallSeconds, run.callCounters, &run.spans);
      notePeakCacheBytes(run);
      run.values["manufacture.nominal_s"] += r.nominalSeconds;
      run.values["manufacture.corner_search_s"] += r.cornerSearchSeconds;
      run.values["manufacture.nominal_evals"] += r.nominalEvaluations;
      run.values["manufacture.robust_evals"] += r.robustEvaluations;
      run.check("traced_robust_matches_untraced", printOf(r) == prints_[0][i],
                "synthesis seed " + std::to_string(seeds_[i]) +
                    " differs between traced and untraced runs");
    }
  }

  std::vector<double> widthReplay(RunData& run, std::size_t width) override {
    draw(0);
    core::ScopedThreadPool pool(width);
    std::vector<double> seconds;
    std::map<std::string, std::uint64_t> counters;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const auto r = meteredDesign(i, seconds, counters, nullptr);
      run.check("width_replay_matches", printOf(r) == prints_[0][i],
                "synthesis seed " + std::to_string(seeds_[i]) + " differs at width " +
                    std::to_string(width));
    }
    return seconds;
  }

 private:
  struct RobustPrint {
    std::vector<double> x;
    double cost = 0.0;
    bool feasible = false;
    std::size_t corners = 0;
    bool operator==(const RobustPrint& o) const {
      return sameBits(x, o.x) && sameBits(cost, o.cost) && feasible == o.feasible &&
             corners == o.corners;
    }
  };
  static RobustPrint printOf(const manufacture::RobustResult& r) {
    return {r.robust.x, r.robust.cost, r.robustFeasibleAtCorners, r.activeCorners};
  }
  void draw(std::size_t set) {
    InputRng rng(seed_, set);
    seeds_.clear();
    for (std::size_t i = 0; i < kSeeds; ++i) seeds_.push_back(1 + rng.next() % 100000);
  }
  /// One robustSynthesize call from an empty eval cache, metered, inside a
  /// span when `spans` is given.  A call that throws yields an empty,
  /// infeasible result: a failed design.
  manufacture::RobustResult meteredDesign(std::size_t i, std::vector<double>& seconds,
                                          std::map<std::string, std::uint64_t>& counters,
                                          SpanRecorder* spans) const {
    clearEvalCache();
    return meteredCall(
        seconds, counters,
        [&] {
          std::optional<ScopedSpan> span;
          if (spans) span.emplace(*spans, "call.robustSynthesize", static_cast<long>(i));
          manufacture::RobustOptions o;
          o.synthesis.seed = seeds_[i];
          return manufacture::robustSynthesize(factory_, proc(), space_, specs_, o);
        },
        [](const std::string&) { return manufacture::RobustResult{}; });
  }

  std::uint64_t seed_;
  manufacture::ModelFactory factory_ = [](const circuit::Process& p) {
    return sizing::makeTwoStageCornerModel(p, proc(), kLoadCap);
  };
  manufacture::VariationSpace space_;
  sizing::SpecSet specs_ = robustSpecs();
  std::vector<std::uint64_t> seeds_;
  std::vector<std::vector<RobustPrint>> prints_;  ///< per input set
};

// ---------------------------------------------------------------------------
// corner_hunt_sim: worstCaseCorner hunt + audit on a simulation model at
// seeded design points, width 4 (the bench/bench_cache.cpp access pattern).

class CornerHuntSim : public Workload {
 public:
  static constexpr std::size_t kPoints = 4;  ///< design points per input set
  /// 128 points; one pass over the pool takes about 20 s on a 4-vCPU host.
  static constexpr std::size_t kInputSets = 32;
  static constexpr std::size_t kWidth = 4;

  explicit CornerHuntSim(std::uint64_t seed) : seed_(seed), prints_(kInputSets) {
    specs_.atLeast("gain_db", 55.0)
        .atLeast("pm", 45.0)
        .atLeast("ugf", 1e6)
        .atMost("power", 1e-2);
  }
  std::size_t poolWidth() const override { return kWidth; }
  std::size_t inputSets() const override { return kInputSets; }
  std::map<std::string, std::string> knobs() const override {
    return {{"model", "SimulationModel(twoStageTemplate), noise off"},
            {"eval_cache", "cleared per design"},
            {"pool_threads", std::to_string(kWidth)}};
  }

  void setup(SetupTimes& t) override {
    const auto t0 = nowNs();
    (void)factory_(proc());
    t.processS += secondsSince(t0);
  }

  void untracedPass(RunData& run, std::size_t pass) override {
    const std::size_t set = inputSetOf(pass, kInputSets);
    const bool fresh = firstOfSet(pass, kInputSets);
    draw(set);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      auto print = meteredPoint(i, run.callSeconds, run.passCounters.back(), nullptr);
      run.countDesign(fresh,
                      !std::all_of(print.begin(), print.end(),
                                   [](double v) { return std::isfinite(v); }),
                      "hunt threw or returned a non-finite margin");
      const std::string what = "point " + std::to_string(i) + " of set " + std::to_string(set);
      if (!fresh) {
        run.check("hunt_repeats_bit_identically", sameBits(print, prints_[set][i]),
                  what + " changed between repetitions");
        continue;
      }
      const std::size_t half = print.size() / 2;
      run.check("audit_reproduces_hunt",
                sameBits({print.begin(), print.begin() + half},
                         {print.begin() + half, print.end()}),
                what);
      // The audited design's own (nominal) power, evaluated outside the
      // timed calls.
      const auto nominal = factory_(proc())->evaluate(points_[i]);
      if (const auto it = nominal.find("power"); it != nominal.end() && it->second > 0)
        run.powerW.push_back(it->second);
      else
        run.check("audited_design_simulates", false, what + " has no nominal power");
      prints_[set].push_back(std::move(print));
    }
  }

  void tracedPass(RunData& run) override {
    draw(0);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const auto print = meteredPoint(i, run.tracedCallSeconds, run.callCounters, &run.spans);
      notePeakCacheBytes(run);
      run.check("traced_hunt_matches_untraced", sameBits(print, prints_[0][i]),
                "point " + std::to_string(i) + " differs between traced and untraced runs");
    }
  }

  std::vector<double> widthReplay(RunData& run, std::size_t width) override {
    draw(0);
    core::ScopedThreadPool pool(width);
    std::vector<double> seconds;
    std::map<std::string, std::uint64_t> counters;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const auto print = meteredPoint(i, seconds, counters, nullptr);
      run.check("width_replay_matches", sameBits(print, prints_[0][i]),
                "point " + std::to_string(i) + " differs at width " + std::to_string(width));
    }
    return seconds;
  }

 private:
  /// Design points around a nominally synthesized two-stage design (a
  /// SimulationModel synthesis for gain >= 62 dB, PM >= 55 deg, UGF >= 2 MHz,
  /// power <= 5 mW): each width, Cc and bias scaled by a Latin-hypercube
  /// factor in [0.8, 1.25] and clamped into the template's box.
  void draw(std::size_t set) {
    static const std::vector<double> kAnchor = {4.0692e-05, 3.70609e-05, 2.71495e-05,
                                                0.00133617, 1.82775e-06, 9.30871e-12, 2e-06};
    const auto tmpl = sizing::twoStageTemplate(proc(), {kLoadCap, 2.2, true});
    InputRng rng(seed_, set);
    std::vector<std::vector<double>> cols;
    for (std::size_t v = 0; v < kAnchor.size(); ++v) cols.push_back(rng.stratified(kPoints));
    points_.clear();
    for (std::size_t i = 0; i < kPoints; ++i) {
      std::vector<double> x;
      for (std::size_t v = 0; v < kAnchor.size(); ++v) {
        const auto& var = tmpl.variables[v];
        const double scaled = kAnchor[v] * std::pow(1.25, 2.0 * cols[v][i] - 1.0);
        x.push_back(std::clamp(scaled, var.lo, var.hi));
      }
      points_.push_back(std::move(x));
    }
  }
  /// Hunt then audit every constraint of point i from an empty eval cache:
  /// eight metered worstCaseCorner calls, each inside a span when `spans`
  /// is given.  Returns margin, value and corner of each call in order; a
  /// call that throws contributes NaNs, failing the point.
  std::vector<double> meteredPoint(std::size_t i, std::vector<double>& seconds,
                                   std::map<std::string, std::uint64_t>& counters,
                                   SpanRecorder* spans) const {
    clearEvalCache();
    std::vector<double> print;
    for (int phase = 0; phase < 2; ++phase)  // 0 = hunt, 1 = audit
      for (const auto& spec : specs_.specs()) {
        const auto wc = meteredCall(
            seconds, counters,
            [&] {
              std::optional<ScopedSpan> span;
              if (spans) span.emplace(*spans, "call.worstCaseCorner", static_cast<long>(i));
              return manufacture::worstCaseCorner(factory_, proc(), space_, points_[i], spec);
            },
            [](const std::string&) {
              return manufacture::WorstCorner{{}, std::nan(""), std::nan("")};
            });
        print.push_back(wc.margin);
        print.push_back(wc.value);
        print.insert(print.end(), wc.corner.begin(), wc.corner.end());
      }
    return print;
  }

  std::uint64_t seed_;
  manufacture::ModelFactory factory_ = [](const circuit::Process& p)
      -> std::unique_ptr<sizing::PerformanceModel> {
    sizing::SimModelOptions o;
    o.measureNoise = false;
    return std::make_unique<sizing::SimulationModel>(
        sizing::twoStageTemplate(p, {kLoadCap, 2.2, true}), p, o);
  };
  manufacture::VariationSpace space_;
  sizing::SpecSet specs_;
  std::vector<std::vector<double>> points_;
  std::vector<std::vector<std::vector<double>>> prints_;  ///< per input set
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "flow_legacy") return std::make_unique<FlowLegacy>(seed);
  if (name == "robust_corners") return std::make_unique<RobustCorners>(seed);
  if (name == "corner_hunt_sim") return std::make_unique<CornerHuntSim>(seed);
  return nullptr;
}

}  // namespace perfbench
