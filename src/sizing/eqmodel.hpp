// Equation-based performance models (OPASYN [8] / OPTIMAN [10] style):
// hand-derived first-order design equations evaluated in microseconds.
// Design variables are bias currents, overdrive voltages, and the
// compensation capacitor; device widths follow from W/L = 2 I / (kp Vov^2),
// so every equation-model design point maps onto the simulatable and
// layoutable TwoStageParams / OtaParams templates.
//
// Each model owns a copy of its process, so a model may outlive the Process
// it was built from: memoized topology libraries (topology/library.hpp) and
// corner/yield factories hand models around freely.
#pragma once

#include <memory>

#include "circuit/process.hpp"
#include "sizing/opamp.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::sizing {

/// Two-stage Miller opamp, equation-based.
/// Variables: i5, i7 (stage currents), vov1, vov3, vov5, vov6 (overdrives),
/// cc (compensation).  Performances: gain_db, ugf, pm, slew, power, area,
/// swing, noise_nv (input thermal noise density in nV/sqrt(Hz)).
class TwoStageEquationModel : public PerformanceModel {
 public:
  TwoStageEquationModel(const circuit::Process& proc, double loadCap);

  const std::vector<DesignVariable>& variables() const override { return vars_; }
  Performance evaluate(const std::vector<double>& x) const override;
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override;
  /// Closed-form equations evaluate in ~1 us — the same order as a cache
  /// transaction — so caching them is pure overhead (the BENCH_cache
  /// genetic workload measures exactly this floor).
  EvalCost evalCost() const override { return EvalCost::Cheap; }

  /// Map a design point to device sizes for simulation / layout.
  TwoStageParams toParams(const std::vector<double>& x) const;

  double loadCap() const { return loadCap_; }

 private:
  circuit::Process proc_;
  double loadCap_;
  std::vector<DesignVariable> vars_;
  core::cache::Hasher128 keyPrefix_;  ///< tag+process+loadCap, mixed once
};

/// Five-transistor OTA, equation-based.
/// Variables: i5, vov1, vov3, vov5.  Performances: gain_db, ugf, pm, slew,
/// power, area, swing, noise_nv.
class OtaEquationModel : public PerformanceModel {
 public:
  OtaEquationModel(const circuit::Process& proc, double loadCap);

  const std::vector<DesignVariable>& variables() const override { return vars_; }
  Performance evaluate(const std::vector<double>& x) const override;
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override;
  EvalCost evalCost() const override { return EvalCost::Cheap; }

  OtaParams toParams(const std::vector<double>& x) const;

 private:
  circuit::Process proc_;
  double loadCap_;
  std::vector<DesignVariable> vars_;
  core::cache::Hasher128 keyPrefix_;  ///< tag+process+loadCap, mixed once
};

/// Evaluate a *fixed geometry* (widths, Cc, Ibias) under an arbitrary
/// process instance.  This is the physically correct object for corner and
/// yield analysis: what a fab varies is kp/Vt/Vdd/T around frozen masks, so
/// currents and overdrives — the equation model's free variables — shift
/// with the corner.  Mirror currents derive from the bias reference through
/// the W5/W8 and W7/W8 ratios.
Performance evaluateTwoStageGeometry(const TwoStageParams& p, const circuit::Process& proc,
                                     double loadCap);

/// Corner model: design points live in the electrical variable space of
/// TwoStageEquationModel, are mapped to geometry at the *nominal* process
/// (that is what the designer tapes out), and evaluated under the corner
/// process.  Use in manufacture::ModelFactory lambdas:
///   [&](const Process& corner) {
///     return makeTwoStageCornerModel(corner, nominalProcess, cl); }
std::unique_ptr<PerformanceModel> makeTwoStageCornerModel(const circuit::Process& corner,
                                                          const circuit::Process& nominal,
                                                          double loadCap);

}  // namespace amsyn::sizing
