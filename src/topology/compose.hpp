// Composition engine over the functional-block library (topology/blocks.hpp):
// for every electrically valid OpampStructure it derives
//   * a composed equation model — per-block contributions to gain, ugf, pm,
//     slew, power, area, swing and noise, in the spirit of the hierarchical
//     performance-equation-library literature.  For the two legacy
//     structures the composed model replays the hand-written
//     OtaEquationModel / TwoStageEquationModel arithmetic bit-for-bit
//     (differential-tested in tests/composed_topology_test.cpp);
//   * derived FeasibilityBounds (boundsBySampling over an adaptive grid);
//   * heuristic selection rules (the legacy rule sets for the reproduced
//     cells, block-derived rules for the rest);
//   * a registered netlist builder (sizing::NetlistBuilderRegistry) that
//     stitches the block sub-netlists (buildComposedOpamp);
//   * a knowledge-plan seed mapping the opamp design plans onto the
//     composed variable vector (composedPlanSeed).
//
// Everything here is deterministic: candidate order follows the block
// enumeration, bounds are sampled serially, and models/builders are pure
// functions — thread count, eval-cache state, and run count do not change a
// single bit of the library or of selection over it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "sizing/perfmodel.hpp"
#include "sizing/spec.hpp"
#include "topology/blocks.hpp"
#include "topology/library.hpp"

namespace amsyn::topology {

/// Composed equation-based performance model for one block structure.
/// Variables are the structure's variables(); performances are the standard
/// amplifier set (gain_db, ugf, pm, slew, power, area, swing, noise_nv).
class ComposedOpampModel : public sizing::PerformanceModel {
 public:
  ComposedOpampModel(const OpampStructure& s, const circuit::Process& proc, double loadCap);

  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>& x) const override;
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override;
  /// Closed-form, same cost class as the hand-written models.
  sizing::EvalCost evalCost() const override { return sizing::EvalCost::Cheap; }

  const OpampStructure& structure() const { return s_; }

 private:
  OpampStructure s_;
  circuit::Process proc_;  ///< owned: memoized libraries outlive the caller's
  double loadCap_;
  std::vector<sizing::DesignVariable> vars_;
  core::cache::Hasher128 keyPrefix_;  ///< tag+name+process+loadCap, mixed once
};

/// Build the generated amplifier library over the full composed space: one
/// entry per valid structure, in enumeration order, with model, bounds,
/// rules and complexity filled and every non-legacy builder registered in
/// the process-wide NetlistBuilderRegistry (once).  Not memoized: reach it
/// through topology::amplifierLibrary (or buildAmplifierLibrary) with
/// TopologySpace::Generated.
TopologyLibrary buildGeneratedLibrary(const circuit::Process& proc, double loadCap);

/// Map the opamp design plans (knowledge/opamp_plans.hpp) onto a composed
/// structure's variable vector: plan outputs fill the shared electrical
/// coordinates, cascode overdrives and the nulling ratio take deterministic
/// block defaults.  nullopt when the specs lack the gain_db + ugf pair the
/// plans require or plan backtracking fails.
std::optional<std::vector<double>> composedPlanSeed(const OpampStructure& s,
                                                    const sizing::SpecSet& specs,
                                                    const circuit::Process& proc,
                                                    double loadCap);

}  // namespace amsyn::topology
