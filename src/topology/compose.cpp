#include "topology/compose.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "circuit/canonical.hpp"
#include "core/context.hpp"
#include "knowledge/opamp_plans.hpp"
#include "sizing/builders.hpp"

namespace amsyn::topology {

using circuit::Process;
using sizing::Performance;
using sizing::SpecKind;
using sizing::SpecSet;

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

}  // namespace

ComposedOpampModel::ComposedOpampModel(const OpampStructure& s, const Process& proc,
                                       double loadCap)
    : s_(s), proc_(proc), loadCap_(loadCap), vars_(s.variables()) {
  keyPrefix_.mixString("composed-opamp");
  keyPrefix_.mixString(s_.name());
  circuit::hashProcess(keyPrefix_, proc_);
  keyPrefix_.mixDouble(loadCap_);
}

std::optional<core::cache::Digest128> ComposedOpampModel::cacheKey(
    const std::vector<double>& x) const {
  core::cache::Hasher128 h = keyPrefix_;
  h.mixQuantizedDoubles(x, core::currentEvalCache().quantum());
  return h.digest();
}

Performance ComposedOpampModel::evaluate(const std::vector<double>& x) const {
  if (x.size() != vars_.size())
    throw std::invalid_argument("ComposedOpampModel(" + s_.name() + "): wrong dimension");

  // Block-slot parameters in stitch order (see OpampStructure::variables).
  std::size_t k = 0;
  const double i5x = x[k++];
  const double i7x = s_.secondStage ? x[k++] : 0.0;
  (void)i7x;  // two-stage currents re-derive from the mirror ratios below
  const double vov1x = x[k++];
  const double vov3x = x[k++];
  const double vov5x = x[k++];
  if (s_.secondStage) ++k;  // vov6: pinned by the zero-offset constraint
  const double vovc1x = s_.inputCascode ? x[k++] : 0.0;
  const double vovc3x = s_.loadCascode ? x[k++] : 0.0;
  const double vovc5x = s_.tailCascode ? x[k++] : 0.0;

  const bool nIn = s_.input == Polarity::Nmos;
  const double kpIn = nIn ? proc_.kpN : proc_.kpP;
  const double kpLoad = nIn ? proc_.kpP : proc_.kpN;
  const double lamN = proc_.lambdaN * 1e-6 / 2e-6;
  const double lamP = proc_.lambdaP * 1e-6 / 2e-6;
  const double lamIn = nIn ? lamN : lamP;
  const double lamLoad = nIn ? lamP : lamN;

  const ComposedGeometry g = composedGeometryFor(s_, x, proc_);
  const double l = g.l;

  // Per-block active-area contributions, folded in stitch order.  For the
  // legacy structures this reproduces OtaParams/TwoStageParams::activeArea
  // term for term.
  double area = 2.0 * g.w1 * l;
  if (s_.inputCascode) area += 2.0 * g.wc1 * l;
  area += 2.0 * g.w3 * l;
  if (s_.loadCascode) area += 2.0 * g.wc3 * l;
  area += g.w5 * l;
  if (s_.tailCascode) area += g.wc5 * l;
  if (s_.secondStage) {
    area += g.w6 * l;
    area += g.w7 * l;
    if (s_.sinkCascode) area += g.wc7 * l;
  }
  area += g.w8 * l;
  if (s_.secondStage) area += sizing::opampCapArea(g.cc);

  Performance perf;

  if (!s_.secondStage) {
    // --- single-stage family: the OTA equations in electrical coordinates,
    // with each cascode contributing an output-conductance knock-down
    // factor (lam_c * vov_c / 2 — the cascode's intrinsic gain inverse), an
    // extra headroom term, and (input cascode) an extra pole.  Absent
    // blocks contribute the exact multiplicative/additive identities, so
    // the legacy five-transistor OTA replays OtaEquationModel bit-for-bit.
    const double i5 = i5x, vov1 = vov1x, vov3 = vov3x, vov5 = vov5x;

    const double gm1 = i5 / vov1;
    const double fIn = s_.inputCascode ? lamIn * vovc1x / 2.0 : 1.0;
    const double fLoad = s_.loadCascode ? lamLoad * vovc3x / 2.0 : 1.0;
    const double fN = nIn ? fIn : fLoad;
    const double fP = nIn ? fLoad : fIn;
    const double gds = (lamN * fN + lamP * fP) * i5 / 2.0;
    const double av = gm1 / gds;
    const double ugf = gm1 / (kTwoPi * loadCap_);

    // Mirror pole at the diode node (~2 cgs3 at conductance gm3).
    const double gm3 = i5 / vov3;
    const double w3 = std::max(proc_.minW, 2.0 * (i5 / 2.0) * l / (kpLoad * vov3 * vov3));
    const double cgs3 = (2.0 / 3.0) * proc_.cox * w3 * l;
    const double pMirror = gm3 / (kTwoPi * 2.0 * cgs3);
    double pm = 180.0 - 90.0 - std::atan(ugf / pMirror) * 180.0 / M_PI;
    if (s_.inputCascode) {
      // Cascode source-node pole: gm_c over the cascode's own gate cap.
      const double gmc1 = i5 / vovc1x;
      const double cgsc1 = (2.0 / 3.0) * proc_.cox * g.wc1 * l;
      const double pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
      pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;
    }

    // Headroom: each stacked cascode eats its overdrive out of the swing.
    double swing = proc_.vdd - vov3 - vov5 - vov1;
    if (s_.inputCascode) swing -= vovc1x;
    if (s_.loadCascode) swing -= vovc3x;
    if (s_.tailCascode) swing -= vovc5x;

    perf["gain_db"] = 20.0 * std::log10(av);
    perf["ugf"] = ugf;
    perf["pm"] = pm;
    perf["slew"] = i5 / loadCap_;
    perf["power"] = proc_.vdd * (i5 + 10e-6);
    perf["area"] = area;
    perf["swing"] = std::max(0.0, swing);
    const double psd = 2.0 * (16.0 / 3.0) * proc_.kT() / gm1 * (1.0 + gm3 / gm1);
    perf["noise_nv"] = std::sqrt(psd) * 1e9;
    return perf;
  }

  // --- two-stage family: the geometry-path equations (see
  // sizing::evaluateTwoStageGeometry), composed per block.  Currents and
  // overdrives re-derive from the stitched device sizes so the model tracks
  // exactly what buildComposedOpamp will produce; cascode blocks multiply
  // their branch's output conductance by lam_c*vov_c/2, add their overdrive
  // to the headroom bill, and (input cascode) append one pole; the nulling
  // resistor moves the Miller zero.  With every optional block absent this
  // is evaluateTwoStageGeometry(toParams(x)) bit-for-bit.
  const double i5 = g.ibias * g.w5 / g.w8;
  const double i7 = g.ibias * g.w7 / g.w8;

  const double vov1 = std::sqrt(i5 * l / (kpIn * g.w1));
  const double vov3 = std::sqrt(i5 * l / (kpLoad * g.w3));
  const double vov6 = std::sqrt(2.0 * i7 * l / (kpLoad * g.w6));
  const double vov7 = std::sqrt(2.0 * i7 * l / (kpIn * g.w7));

  const double gm1 = i5 / vov1;
  const double gm6 = 2.0 * i7 / vov6;

  const double vovc1 = s_.inputCascode ? std::sqrt(i5 * l / (kpIn * g.wc1)) : 0.0;
  const double vovc3 = s_.loadCascode ? std::sqrt(i5 * l / (kpLoad * g.wc3)) : 0.0;
  const double vovc7 = s_.sinkCascode ? std::sqrt(2.0 * i7 * l / (kpIn * g.wc7)) : 0.0;

  const double fIn = s_.inputCascode ? lamIn * vovc1 / 2.0 : 1.0;
  const double fLoad = s_.loadCascode ? lamLoad * vovc3 / 2.0 : 1.0;
  const double fN1 = nIn ? fIn : fLoad;
  const double fP1 = nIn ? fLoad : fIn;
  const double av1 = gm1 / ((lamN * fN1 + lamP * fP1) * i5 / 2.0);

  // Stage 2: the sink is the input polarity, the driver the complement.
  const double fSink = s_.sinkCascode ? lamIn * vovc7 / 2.0 : 1.0;
  const double fN2 = nIn ? fSink : 1.0;
  const double fP2 = nIn ? 1.0 : fSink;
  const double av2 = gm6 / ((lamN * fN2 + lamP * fP2) * i7);

  const double gbw = gm1 / (kTwoPi * g.cc);
  const double p2 = gm6 / (kTwoPi * loadCap_);
  const double gm3 = i5 / vov3;
  const double cgs3 = (2.0 / 3.0) * proc_.cox * g.w3 * l;
  const double p3 = gm3 / (kTwoPi * 2.0 * std::max(cgs3, 1e-18));

  // Optional cascode pole on the first stage's folded node.
  double pCasc = 0.0;
  if (s_.inputCascode) {
    const double gmc1 = i5 / vovc1;
    const double cgsc1 = (2.0 / 3.0) * proc_.cox * g.wc1 * l;
    pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
  }

  // Compensation zero.  Plain Miller keeps the legacy RHP zero z = gm6 /
  // (2 pi Cc); the nulling resistor shifts it through 1/z = 2 pi Cc
  // (1/gm6 - Rz) — negative (LHP, phase-recovering) once Rz > 1/gm6.
  const bool nulled = s_.comp == Compensation::MillerNulled;
  const double z = nulled ? 0.0 : gm6 / (kTwoPi * g.cc);
  const double zInv = nulled ? kTwoPi * g.cc * (1.0 / gm6 - g.rz) : 0.0;

  const double av0 = av1 * av2;
  const double p1 = gbw / std::max(av0, 1.0);  // dominant pole (Hz)
  auto magnitude = [&](double f) {
    const double num = nulled ? 1.0 + (f * zInv) * (f * zInv) : 1.0 + (f / z) * (f / z);
    double den = (1.0 + (f / p1) * (f / p1)) * (1.0 + (f / p2) * (f / p2)) *
                 (1.0 + (f / p3) * (f / p3));
    if (s_.inputCascode) den *= 1.0 + (f / pCasc) * (f / pCasc);
    return av0 * std::sqrt(num / den);
  };
  double lo = p1, hi = 1e13;
  for (int it = 0; it < 80; ++it) {
    const double mid = std::sqrt(lo * hi);
    (magnitude(mid) > 1.0 ? lo : hi) = mid;
  }
  const double ugf = std::sqrt(lo * hi);

  double pm = 180.0;
  pm -= std::atan(ugf / p1) * 180.0 / M_PI;
  pm -= std::atan(ugf / p2) * 180.0 / M_PI;
  pm -= (nulled ? std::atan(ugf * zInv) : std::atan(ugf / z)) * 180.0 / M_PI;
  pm -= std::atan(ugf / p3) * 180.0 / M_PI;
  if (s_.inputCascode) pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;

  double swing = proc_.vdd - vov6 - vov7 -
                 0.5 * (std::abs(proc_.vt0N) - 0.75 + std::abs(proc_.vt0P) - 0.85);
  if (s_.sinkCascode) swing -= vovc7;

  const double psd = 2.0 * (16.0 / 3.0) * proc_.kT() / gm1 * (1.0 + gm3 / gm1);

  perf["gain_db"] = 20.0 * std::log10(av1 * av2);
  perf["ugf"] = ugf;
  perf["pm"] = pm;
  perf["slew"] = std::min(i5 / g.cc, i7 / loadCap_);
  perf["power"] = proc_.vdd * (i5 + i7 + g.ibias);
  perf["area"] = area;
  perf["swing"] = std::max(0.0, swing);
  perf["noise_nv"] = std::sqrt(psd) * 1e9;
  return perf;
}

namespace {

/// Largest grid g >= 2 with g^dim <= ~4k model evaluations: generated
/// entries trade per-axis resolution for bounded library-construction cost
/// (the legacy entries keep their historical 5/4 grids so their bounds stay
/// bit-identical to the hand-written library's).
std::size_t adaptiveGrid(std::size_t dim) {
  std::size_t g = 2;
  for (std::size_t cand = 3; cand <= 8; ++cand) {
    double evals = 1.0;
    for (std::size_t i = 0; i < dim; ++i) evals *= static_cast<double>(cand);
    if (evals <= 4096.0) g = cand;
  }
  return g;
}

int cascodeCount(const OpampStructure& s) {
  return int(s.inputCascode) + int(s.loadCascode) + int(s.tailCascode) +
         int(s.sinkCascode);
}

std::vector<HeuristicRule> rulesFor(const OpampStructure& s) {
  // Family rules are shared with the hand-written cells: a composed
  // two-stage scores the two-stage rules, a composed single-stage the OTA
  // rules.  Block-specific rules ride on top.
  std::vector<HeuristicRule> rules =
      s.secondStage ? legacyTwoStageRules() : legacyOtaRules();
  if (const int k = cascodeCount(s)) {
    rules.push_back({"cascodes raise achievable gain but cost headroom",
                     [k](const SpecSet& specs) {
                       double score = 0.0;
                       for (const auto& sp : specs.specs()) {
                         if (sp.performance == "gain_db" &&
                             sp.kind == SpecKind::GreaterEqual && sp.bound > 75.0)
                           score += 1.0 * k;
                         if (sp.performance == "swing" &&
                             sp.kind == SpecKind::GreaterEqual)
                           score -= 0.5 * k;
                       }
                       return score;
                     }});
  }
  if (s.comp == Compensation::MillerNulled) {
    rules.push_back({"nulling resistor recovers phase margin",
                     [](const SpecSet& specs) {
                       double score = 0.0;
                       for (const auto& sp : specs.specs())
                         if (sp.performance == "pm" && sp.kind == SpecKind::GreaterEqual &&
                             sp.bound >= 70.0)
                           score += 1.0;
                       return score;
                     }});
  }
  if (s.isLegacyOta() || s.isLegacyTwoStage()) {
    // Provenance: the reproduced hand-written cells are silicon-validated
    // references; prefer them over an equal-scoring generated sibling (the
    // name tie-break alone would rank "gen/..." first).
    rules.push_back({"hand-validated reference cell",
                     [](const SpecSet&) { return 0.05; }});
  }
  return rules;
}

/// Register every generated (non-legacy) structure's netlist builder.  The
/// registry pre-populates the legacy builders; the composed instances of
/// the legacy cells deliberately leave those untouched (they are
/// byte-identical anyway, differential-tested).
void registerGeneratedBuilders() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    auto& reg = sizing::NetlistBuilderRegistry::instance();
    for (const OpampStructure& s : enumerateOpampStructures()) {
      if (s.isLegacyOta() || s.isLegacyTwoStage()) continue;
      reg.add(s.name(), [s](const std::vector<double>& x, const Process& proc,
                            const sizing::OpampTestbench& tb) {
        return buildComposedOpamp(s, x, proc, tb);
      });
    }
  });
}

}  // namespace

TopologyLibrary buildGeneratedLibrary(const Process& proc, double loadCap) {
  registerGeneratedBuilders();
  TopologyLibrary lib;
  for (const OpampStructure& s : enumerateOpampStructures()) {
    TopologyEntry e;
    e.name = s.name();
    e.model = std::make_shared<ComposedOpampModel>(s, proc, loadCap);
    // Legacy grids for the reproduced cells (bounds then match the legacy
    // library bit-for-bit, since the models do); adaptive elsewhere.
    const std::size_t grid = s.isLegacyOta()        ? 5
                             : s.isLegacyTwoStage() ? 4
                                                    : adaptiveGrid(s.variables().size());
    e.bounds = boundsBySampling(*e.model, grid);
    e.rules = rulesFor(s);
    e.complexity = s.deviceCount();
    lib.add(std::move(e));
  }
  return lib;
}

std::optional<std::vector<double>> composedPlanSeed(const OpampStructure& s,
                                                    const SpecSet& specs,
                                                    const Process& proc, double loadCap) {
  const auto planIn = knowledge::opampPlanInputs(specs, loadCap);
  if (!planIn) return std::nullopt;

  std::vector<double> shared;  // family coordinates, legacy variable order
  if (s.secondStage) {
    const auto plan = knowledge::twoStageOpampPlan();
    const auto res = plan.execute(proc, *planIn);
    if (!res.success) return std::nullopt;
    shared = knowledge::extractTwoStageDesign(res.context);  // i5,i7,vov1,vov3,vov5,vov6,cc
  } else {
    const auto plan = knowledge::otaPlan();
    const auto res = plan.execute(proc, *planIn);
    if (!res.success) return std::nullopt;
    shared = knowledge::extractOtaDesign(res.context);  // i5,vov1,vov3,vov5
  }

  // Scatter the plan outputs into the composed stitch order; cascode
  // overdrives and the nulling ratio take the block defaults (mid-box,
  // deterministic).
  std::vector<double> x;
  std::size_t k = 0;
  x.push_back(shared[k++]);                     // i5
  if (s.secondStage) x.push_back(shared[k++]);  // i7
  x.push_back(shared[k++]);                     // vov1
  x.push_back(shared[k++]);                     // vov3
  x.push_back(shared[k++]);                     // vov5
  if (s.secondStage) x.push_back(shared[k++]);  // vov6
  if (s.inputCascode) x.push_back(0.20);        // vovc1
  if (s.loadCascode) x.push_back(0.25);         // vovc3
  if (s.tailCascode) x.push_back(0.25);         // vovc5
  if (s.sinkCascode) x.push_back(0.25);         // vovc7
  if (s.secondStage) x.push_back(shared[k++]);  // cc
  if (s.comp == Compensation::MillerNulled) x.push_back(1.3);  // rzk
  return x;
}

}  // namespace amsyn::topology
