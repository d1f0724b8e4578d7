#include "sizing/eqmodel.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/canonical.hpp"
#include "core/context.hpp"

namespace amsyn::sizing {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
constexpr double kIbiasRef = 10e-6;  // reference current into the bias diode

/// W from the square law: W = 2 I L / (kp Vov^2), floored at the process
/// minimum width.
double widthFor(double i, double vov, double kp, double l, double minW) {
  return std::max(minW, 2.0 * i * l / (kp * vov * vov));
}
}  // namespace

TwoStageEquationModel::TwoStageEquationModel(const circuit::Process& proc, double loadCap)
    : proc_(proc), loadCap_(loadCap) {
  vars_ = {
      {"i5", 2e-6, 2e-3, true},     // first-stage tail current
      {"i7", 2e-6, 5e-3, true},     // second-stage current
      {"vov1", 0.08, 0.5, false},   // input-pair overdrive
      {"vov3", 0.10, 0.8, false},   // mirror overdrive
      {"vov5", 0.10, 0.8, false},   // tail / sink overdrive
      {"vov6", 0.10, 0.8, false},   // output-driver overdrive
      {"cc", 0.2e-12, 2e-11, true}, // Miller capacitor
  };
  // The key components that never change per model instance — identity tag,
  // process parameters, load — are mixed once here; cacheKey() copies the
  // prefix hasher (two words) and only mixes the sizing vector per call.
  keyPrefix_.mixString("eq-two-stage");
  circuit::hashProcess(keyPrefix_, proc_);
  keyPrefix_.mixDouble(loadCap_);
}

Performance TwoStageEquationModel::evaluate(const std::vector<double>& x) const {
  if (x.size() != vars_.size())
    throw std::invalid_argument("TwoStageEquationModel: wrong dimension");
  // Evaluate through the geometry path: map the electrical point onto
  // device sizes first (with minimum-width flooring) and derive the
  // performances from that geometry.  This keeps the model exactly
  // consistent with the netlist buildTwoStageOpamp() will produce — the
  // classic OPASYN failure mode is an equation model whose idealized
  // variables drift away from the realizable device sizes.
  return evaluateTwoStageGeometry(toParams(x), proc_, loadCap_);
}

std::optional<core::cache::Digest128> TwoStageEquationModel::cacheKey(
    const std::vector<double>& x) const {
  core::cache::Hasher128 h = keyPrefix_;
  h.mixQuantizedDoubles(x, core::currentEvalCache().quantum());
  return h.digest();
}

TwoStageParams TwoStageEquationModel::toParams(const std::vector<double>& x) const {
  const double i5 = x[0], i7 = x[1];
  const double vov1 = x[2], vov3 = x[3], vov5 = x[4];
  const double l = 2e-6;
  TwoStageParams p;
  p.l = l;
  p.w1 = widthFor(i5 / 2.0, vov1, proc_.kpN, l, proc_.minW);
  p.w3 = widthFor(i5 / 2.0, vov3, proc_.kpP, l, proc_.minW);
  p.w5 = widthFor(i5, vov5, proc_.kpN, l, proc_.minW);
  // Zero-systematic-offset constraint (Allen & Holberg): the mirror pins
  // M6's gate voltage to M4's, so vov6 = vov3 and W6 follows from the
  // current ratio rather than from an independent overdrive choice.
  // (x[5], the vov6 coordinate, deliberately has no effect: treating it as
  // free is exactly the model-vs-circuit inconsistency that made early
  // equation-based tools produce designs that failed in SPICE.)
  p.w6 = std::max(proc_.minW, p.w3 * 2.0 * i7 / i5);
  p.w7 = widthFor(i7, vov5, proc_.kpN, l, proc_.minW);
  p.ibias = kIbiasRef;
  // Bias diode sized for the same overdrive as the tail at the reference
  // current, so the mirror ratio sets I5.
  p.w8 = std::max(proc_.minW, p.w5 * p.ibias / std::max(i5, 1e-9));
  p.cc = x[6];
  return p;
}

OtaEquationModel::OtaEquationModel(const circuit::Process& proc, double loadCap)
    : proc_(proc), loadCap_(loadCap) {
  vars_ = {
      {"i5", 2e-6, 2e-3, true},
      {"vov1", 0.08, 0.5, false},
      {"vov3", 0.10, 0.8, false},
      {"vov5", 0.10, 0.8, false},
  };
  keyPrefix_.mixString("eq-ota");
  circuit::hashProcess(keyPrefix_, proc_);
  keyPrefix_.mixDouble(loadCap_);
}

Performance OtaEquationModel::evaluate(const std::vector<double>& x) const {
  if (x.size() != vars_.size()) throw std::invalid_argument("OtaEquationModel: wrong dimension");
  const double i5 = x[0], vov1 = x[1], vov3 = x[2], vov5 = x[3];
  const double l = 2e-6;
  const double lamN = proc_.lambdaN * 1e-6 / l;
  const double lamP = proc_.lambdaP * 1e-6 / l;

  const double gm1 = i5 / vov1;
  const double gds = (lamN + lamP) * i5 / 2.0;
  const double av = gm1 / gds;
  const double ugf = gm1 / (kTwoPi * loadCap_);
  // Non-dominant pole at the mirror node ~ gm3 / (2 Cgs3); approximate
  // Cgs3 from the mirror width.
  const double gm3 = i5 / vov3;
  const double w3 = std::max(proc_.minW, 2.0 * (i5 / 2.0) * l / (proc_.kpP * vov3 * vov3));
  const double cgs3 = (2.0 / 3.0) * proc_.cox * w3 * l;
  const double pMirror = gm3 / (kTwoPi * 2.0 * cgs3);
  const double pm = 180.0 - 90.0 - std::atan(ugf / pMirror) * 180.0 / M_PI;

  const OtaParams p = toParams(x);
  Performance perf;
  perf["gain_db"] = 20.0 * std::log10(av);
  perf["ugf"] = ugf;
  perf["pm"] = pm;
  perf["slew"] = i5 / loadCap_;
  perf["power"] = proc_.vdd * (i5 + 10e-6);
  perf["area"] = p.activeArea(proc_);
  perf["swing"] = std::max(0.0, proc_.vdd - vov3 - vov5 - vov1);
  const double psd = 2.0 * (16.0 / 3.0) * proc_.kT() / gm1 * (1.0 + gm3 / gm1);
  perf["noise_nv"] = std::sqrt(psd) * 1e9;
  return perf;
}

std::optional<core::cache::Digest128> OtaEquationModel::cacheKey(
    const std::vector<double>& x) const {
  core::cache::Hasher128 h = keyPrefix_;
  h.mixQuantizedDoubles(x, core::currentEvalCache().quantum());
  return h.digest();
}

OtaParams OtaEquationModel::toParams(const std::vector<double>& x) const {
  const double i5 = x[0], vov1 = x[1], vov3 = x[2], vov5 = x[3];
  const double l = 2e-6;
  OtaParams p;
  p.l = l;
  p.w1 = widthFor(i5 / 2.0, vov1, proc_.kpN, l, proc_.minW);
  p.w3 = widthFor(i5 / 2.0, vov3, proc_.kpP, l, proc_.minW);
  p.w5 = widthFor(i5, vov5, proc_.kpN, l, proc_.minW);
  p.ibias = 10e-6;
  p.w8 = std::max(proc_.minW, p.w5 * p.ibias / std::max(i5, 1e-9));
  return p;
}

Performance evaluateTwoStageGeometry(const TwoStageParams& p, const circuit::Process& proc,
                                     double loadCap) {
  // Bias currents from the mirror ratios off the (ideal) reference.
  const double i5 = p.ibias * p.w5 / p.w8;
  const double i7 = p.ibias * p.w7 / p.w8;
  const double l = p.l;
  const double lamN = proc.lambdaN * 1e-6 / l;
  const double lamP = proc.lambdaP * 1e-6 / l;

  // Overdrives follow from the square law at the corner's kp.
  const double vov1 = std::sqrt(i5 * l / (proc.kpN * p.w1));
  const double vov3 = std::sqrt(i5 * l / (proc.kpP * p.w3));
  [[maybe_unused]] const double vov5 = std::sqrt(2.0 * i5 * l / (proc.kpN * p.w5));
  const double vov6 = std::sqrt(2.0 * i7 * l / (proc.kpP * p.w6));
  const double vov7 = std::sqrt(2.0 * i7 * l / (proc.kpN * p.w7));

  const double gm1 = i5 / vov1;
  const double gm6 = 2.0 * i7 / vov6;
  const double av1 = gm1 / ((lamN + lamP) * i5 / 2.0);
  const double av2 = gm6 / ((lamN + lamP) * i7);

  const double gbw = gm1 / (kTwoPi * p.cc);  // gain-bandwidth product
  const double p2 = gm6 / (kTwoPi * loadCap);
  const double z = gm6 / (kTwoPi * p.cc);
  // Mirror pole: the diode-connected M3 loads the first stage's internal
  // node with ~2 cgs3 at conductance gm3.
  const double gm3 = i5 / vov3;
  const double cgs3 = (2.0 / 3.0) * proc.cox * p.w3 * l;
  const double p3 = gm3 / (kTwoPi * 2.0 * std::max(cgs3, 1e-18));

  // True unity-gain crossing of the 3-pole / 1-RHP-zero response.  When p2
  // sits near the GBW product the magnitude falls at -40 dB/dec before
  // crossing, so the measured UGF lands well below gm1/(2 pi Cc); reporting
  // the naive GBW here is exactly the kind of model-vs-silicon drift the
  // verification step of section 2.1 exists to catch.
  const double av0 = av1 * av2;
  const double p1 = gbw / std::max(av0, 1.0);  // dominant pole (Hz)
  auto magnitude = [&](double f) {
    const double num = 1.0 + (f / z) * (f / z);
    const double den = (1.0 + (f / p1) * (f / p1)) * (1.0 + (f / p2) * (f / p2)) *
                       (1.0 + (f / p3) * (f / p3));
    return av0 * std::sqrt(num / den);
  };
  double lo = p1, hi = 1e13;
  for (int it = 0; it < 80; ++it) {
    const double mid = std::sqrt(lo * hi);
    (magnitude(mid) > 1.0 ? lo : hi) = mid;
  }
  const double ugf = std::sqrt(lo * hi);

  const double pm = 180.0 - std::atan(ugf / p1) * 180.0 / M_PI -
                    std::atan(ugf / p2) * 180.0 / M_PI -
                    std::atan(ugf / z) * 180.0 / M_PI -
                    std::atan(ugf / p3) * 180.0 / M_PI;

  const double psd = 2.0 * (16.0 / 3.0) * proc.kT() / gm1 * (1.0 + gm3 / gm1);

  Performance perf;
  perf["gain_db"] = 20.0 * std::log10(av1 * av2);
  perf["ugf"] = ugf;
  perf["pm"] = pm;
  perf["slew"] = std::min(i5 / p.cc, i7 / loadCap);
  perf["power"] = proc.vdd * (i5 + i7 + p.ibias);
  perf["area"] = p.activeArea(proc);
  // Headroom shrinks with |Vt| growth as well as overdrive growth.
  perf["swing"] =
      std::max(0.0, proc.vdd - vov6 - vov7 -
                        0.5 * (std::abs(proc.vt0N) - 0.75 + std::abs(proc.vt0P) - 0.85));
  perf["noise_nv"] = std::sqrt(psd) * 1e9;
  return perf;
}

namespace {

/// See makeTwoStageCornerModel.
class TwoStageCornerModel : public PerformanceModel {
 public:
  TwoStageCornerModel(const circuit::Process& corner, const circuit::Process& nominal,
                      double loadCap)
      : corner_(corner), nominalModel_(nominal, loadCap), loadCap_(loadCap) {
    keyPrefix_.mixString("eq-two-stage-corner");
    circuit::hashProcess(keyPrefix_, corner_);
    circuit::hashProcess(keyPrefix_, nominal);
    keyPrefix_.mixDouble(loadCap_);
  }

  const std::vector<DesignVariable>& variables() const override {
    return nominalModel_.variables();
  }

  Performance evaluate(const std::vector<double>& x) const override {
    const TwoStageParams geometry = nominalModel_.toParams(x);
    return evaluateTwoStageGeometry(geometry, corner_, loadCap_);
  }

  /// Corner-hunt hot path: worstCaseCorner re-visits the same (corner, x)
  /// pairs across cutting-plane rounds and in the final audit; the key
  /// mixes both processes because the geometry is frozen at nominal and
  /// evaluated at the corner.
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override {
    core::cache::Hasher128 h = keyPrefix_;
    h.mixQuantizedDoubles(x, core::currentEvalCache().quantum());
    return h.digest();
  }

  // Stays Heavy: the corner hunt's value is precisely the cross-round /
  // audit re-hit pattern, and the cost of one evaluation (geometry map +
  // 80-iteration UGF bisection, times the vertex fan-out) clears the
  // cache-transaction bar.

 private:
  circuit::Process corner_;
  TwoStageEquationModel nominalModel_;  ///< owns the nominal process
  double loadCap_;
  core::cache::Hasher128 keyPrefix_;  ///< tag+corner+nominal+loadCap
};

}  // namespace

std::unique_ptr<PerformanceModel> makeTwoStageCornerModel(const circuit::Process& corner,
                                                          const circuit::Process& nominal,
                                                          double loadCap) {
  return std::make_unique<TwoStageCornerModel>(corner, nominal, loadCap);
}

}  // namespace amsyn::sizing
