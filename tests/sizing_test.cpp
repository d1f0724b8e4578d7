#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/metrics.hpp"
#include "sim/ac.hpp"
#include "sizing/builders.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sizing/cost.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"
#include "sizing/relaxed.hpp"
#include "sizing/simmodel.hpp"
#include "sizing/synth.hpp"

namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }
}

TEST(Spec, ViolationSemantics) {
  sz::Spec ge{"gain_db", sz::SpecKind::GreaterEqual, 60.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(ge.violation(70.0), 0.0);
  EXPECT_NEAR(ge.violation(54.0), 0.1, 1e-12);  // (60-54)/60
  sz::Spec le{"power", sz::SpecKind::LessEqual, 1e-3, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(le.violation(0.5e-3), 0.0);
  EXPECT_NEAR(le.violation(2e-3), 1.0, 1e-12);
}

TEST(Spec, SetSatisfaction) {
  sz::SpecSet s;
  s.atLeast("gain_db", 60).atMost("power", 1e-3).minimize("area");
  EXPECT_TRUE(s.satisfied({{"gain_db", 65.0}, {"power", 0.5e-3}}));
  EXPECT_FALSE(s.satisfied({{"gain_db", 55.0}, {"power", 0.5e-3}}));
  EXPECT_FALSE(s.satisfied({{"power", 0.5e-3}}));  // missing perf = violation
  EXPECT_GT(s.totalViolation({{"gain_db", 30.0}, {"power", 2e-3}}), 1.0);
}

TEST(EquationModel, ProducesSanePerformances) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  const auto x = model.initialPoint();
  const auto perf = model.evaluate(x);
  EXPECT_GT(perf.at("gain_db"), 40.0);
  EXPECT_GT(perf.at("ugf"), 1e5);
  EXPECT_GT(perf.at("pm"), 0.0);
  EXPECT_LT(perf.at("pm"), 120.0);
  EXPECT_GT(perf.at("power"), 0.0);
  EXPECT_GT(perf.at("swing"), 1.0);
  EXPECT_GT(perf.at("noise_nv"), 0.0);
}

TEST(EquationModel, UgfIsBoundedByGainBandwidthProduct) {
  // The reported UGF is the true unity-gain crossing of the multi-pole
  // response: at or below the naive gm1/(2 pi Cc) GBW product, and within
  // a factor of ~2 of it for a reasonably compensated design.
  sz::TwoStageEquationModel model(proc(), 5e-12);
  auto x = model.initialPoint();
  const double i5 = x[0], vov1 = x[2], cc = x[6];
  const double gbw = (i5 / vov1) / (2 * M_PI * cc);
  const auto perf = model.evaluate(x);
  EXPECT_LE(perf.at("ugf"), gbw * 1.001);
  EXPECT_GT(perf.at("ugf"), gbw * 0.3);
}

TEST(EquationModel, MatchesSimulationWithinModelingError) {
  // The whole point of the shared parameter block: an equation-model design
  // must verify in the simulator with only first-order discrepancies
  // (factor ~2 in gain, ~30% in UGF).
  sz::TwoStageEquationModel model(proc(), 5e-12);
  std::vector<double> x = {100e-6, 300e-6, 0.2, 0.3, 0.3, 0.3, 3e-12};
  const auto eqPerf = model.evaluate(x);
  const auto params = model.toParams(x);

  auto net = sz::buildTwoStageOpamp(params, proc(), {});
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e9, 6));
  const double simGain = sim::dcGainDb(sweep);
  const auto simUgf = sim::unityGainFrequency(sweep);
  ASSERT_TRUE(simUgf.has_value());

  EXPECT_NEAR(simGain, eqPerf.at("gain_db"), 12.0);  // within ~1 decade of gain
  EXPECT_NEAR(std::log10(*simUgf), std::log10(eqPerf.at("ugf")), 0.35);
}

TEST(CostFunction, PenalizesViolationsQuadratically) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  sz::SpecSet impossible;
  impossible.atLeast("gain_db", 1e9);  // unreachable
  sz::SpecSet easy;
  easy.atLeast("gain_db", 10.0);
  const sz::CostFunction cHard(model, impossible);
  const sz::CostFunction cEasy(model, easy);
  const auto x = model.initialPoint();
  EXPECT_GT(cHard(x), cEasy(x));
  EXPECT_TRUE(cEasy.detailed(x).feasible);
  EXPECT_FALSE(cHard.detailed(x).feasible);
}

TEST(CostFunction, ObjectiveOrdersDesigns) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  sz::SpecSet s;
  s.minimize("power", 1.0, 1e-3);
  const sz::CostFunction cost(model, s);
  auto xLow = model.initialPoint();
  auto xHigh = xLow;
  xHigh[0] *= 8;  // more tail current -> more power
  xHigh[1] *= 8;
  EXPECT_LT(cost(xLow), cost(xHigh));
}

TEST(Synthesis, EquationModelMeetsModerateSpecs) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 5e6)
      .atLeast("pm", 55.0)
      .atLeast("slew", 5e6)
      .atMost("power", 5e-3)
      .minimize("power", 0.5, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 3;
  const auto res = sz::synthesize(model, specs, opts);
  EXPECT_TRUE(res.feasible) << "gain=" << res.performance.at("gain_db")
                            << " ugf=" << res.performance.at("ugf")
                            << " pm=" << res.performance.at("pm");
  EXPECT_GE(res.performance.at("gain_db"), 65.0 - 1e-6);
  EXPECT_GT(res.evaluations, 100u);
}

TEST(Synthesis, MinimizePowerActuallyReducesIt) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("pm", 45.0).minimize("power", 2.0, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 5;
  const auto res = sz::synthesize(model, specs, opts);
  ASSERT_TRUE(res.feasible);
  // Unconstrained initial point burns ~1 mW; optimizer should go well below.
  const auto initPerf = model.evaluate(model.initialPoint());
  EXPECT_LT(res.performance.at("power"), initPerf.at("power"));
}

// Golden of one fixed-seed annealing run on the two-stage equation model:
// the calibrated starting temperature (bit-exact) and the number of cost
// evaluations the whole run made.  Both depend on every RNG draw and every
// probe of the temperature calibration, so any change to the annealer's
// proposal, calibration or refinement schedule shows up here.
TEST(Synthesis, FixedSeedAnnealIsPinned) {
  sz::TwoStageEquationModel model(proc(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 5e6)
      .atLeast("pm", 55.0)
      .atLeast("slew", 5e6)
      .atMost("power", 5e-3)
      .minimize("power", 0.5, 1e-3);
  const sz::CostFunction cost(model, specs);
  sz::SynthesisOptions opts;
  opts.seed = 7;
  auto& reg = amsyn::core::metrics::registry();
  const std::uint64_t before = reg.total("sizing.cost_evals");
  const auto res = sz::synthesize(cost, opts);
  const std::uint64_t costEvals = reg.total("sizing.cost_evals") - before;
  EXPECT_EQ(res.anneal.initialTemperature, 0x1.522f41c7491f5p+11);
  EXPECT_EQ(costEvals, 1914u);
  EXPECT_EQ(res.evaluations, costEvals);
}

TEST(SimulationModel, EvaluatesDefaultOpamp) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::SimulationModel model(std::move(tmpl), proc());
  std::vector<double> x = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};
  const auto perf = model.evaluate(x);
  ASSERT_FALSE(perf.count("_infeasible"))
      << "sim model infeasible at a known-good design";
  EXPECT_GT(perf.at("gain_db"), 40.0);
  EXPECT_GT(perf.at("ugf"), 1e6);
  EXPECT_GT(perf.at("pm"), 0.0);
  EXPECT_GT(perf.at("power"), 0.0);
  EXPECT_GT(perf.at("slew"), 1e5);
  EXPECT_EQ(model.evaluations(), 1u);
}

TEST(SimulationModel, InfeasibleOnAbsurdSizes) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::SimulationModel model(std::move(tmpl), proc());
  // Tiny devices and huge cc: no unity-gain crossing above 1 Hz expected,
  // or the bias fails — either way it must be flagged, not crash.
  std::vector<double> x = {1.6e-6, 1.6e-6, 1.6e-6, 1.6e-6, 1.6e-6, 2e-11, 2e-6};
  const auto perf = model.evaluate(x);
  SUCCEED();  // no throw is the contract; _infeasible may or may not be set
  (void)perf;
}

TEST(RelaxedDc, InitialPointHasTinyResidual) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::RelaxedDcModel model(std::move(tmpl), proc());
  const auto x0 = model.initialPoint();
  const auto perf = model.evaluate(x0);
  ASSERT_TRUE(perf.count("_dc_residual"));
  EXPECT_LT(perf.at("_dc_residual"), 1e-2);  // warm start is a solved bias
  EXPECT_GT(perf.at("gain_db"), 20.0);       // AWE sees a real amplifier
}

TEST(RelaxedDc, ResidualGrowsWhenBiasPerturbed) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::RelaxedDcModel model(std::move(tmpl), proc());
  auto x = model.initialPoint();
  auto xBad = x;
  for (std::size_t i = model.templateDimension(); i < xBad.size(); ++i) xBad[i] += 0.4;
  EXPECT_GT(model.evaluate(xBad).at("_dc_residual"),
            10.0 * model.evaluate(x).at("_dc_residual"));
}

TEST(OpampTemplates, OtaBuildsAndBiases) {
  sz::OtaParams p;
  auto net = sz::buildOta(p, proc(), {});
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e9, 6));
  EXPECT_GT(sim::dcGainDb(sweep), 30.0);  // a healthy OTA has > 30 dB
}

TEST(OpampTemplates, AreaScalesWithWidths) {
  sz::TwoStageParams small, big = small;
  big.w1 *= 4;
  big.w6 *= 4;
  EXPECT_GT(big.activeArea(proc()), small.activeArea(proc()));
}

TEST(NetlistBuilders, RegistryCoversTheBuiltInTopologiesAndMatchesDirectBuilds) {
  auto& reg = sz::NetlistBuilderRegistry::instance();
  const auto names = reg.topologies();
  EXPECT_NE(std::find(names.begin(), names.end(), "two-stage-miller"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "five-transistor-ota"), names.end());
  EXPECT_EQ(reg.find("no-such-topology"), nullptr);

  // The registered builder is the same construction as the direct path.
  const sz::OpampTestbench tb{5e-12, 2.2, true};
  const sz::OtaEquationModel model(proc(), tb.loadCap);
  std::vector<double> x;
  for (const auto& v : model.variables()) x.push_back(std::sqrt(v.lo * v.hi));
  const auto* builder = reg.find("five-transistor-ota");
  ASSERT_NE(builder, nullptr);
  const auto viaRegistry = (*builder)(x, proc(), tb);
  const auto direct = sz::buildOta(model.toParams(x), proc(), tb);
  EXPECT_EQ(viaRegistry.devices().size(), direct.devices().size());
  EXPECT_EQ(viaRegistry.totalGateArea(), direct.totalGateArea());
}
