#include "sim/mna.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace amsyn::sim {

using circuit::Device;
using circuit::DeviceType;
using circuit::kGround;
using circuit::MosOp;
using circuit::NodeId;

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Diode current with overflow-safe exponential (linearized above vCrit).
void diodeEval(double v, double isat, double vt, double& i, double& g) {
  constexpr double kMaxArg = 40.0;
  const double arg = v / vt;
  if (arg > kMaxArg) {
    const double e = std::exp(kMaxArg);
    i = isat * (e * (1.0 + (arg - kMaxArg)) - 1.0);
    g = isat * e / vt;
  } else {
    const double e = std::exp(arg);
    i = isat * (e - 1.0);
    g = isat * e / vt;
  }
  // Keep a floor conductance so reverse-biased diodes stay invertible.
  g += 1e-12;
}

/// Companion model of capacitance `cap` at branch voltage vNow: returns the
/// element current and sets the equivalent conductance.  BE:
/// i = (C/h)(v - vPrev); trapezoidal: i = (2C/h)(v - vPrev) - iPrev.
double companionCurrent(double cap, double vNow, const CompanionState& st, double h,
                        bool trapezoidal, double& geq) {
  if (trapezoidal) {
    geq = 2.0 * cap / h;
    return geq * (vNow - st.prevV) - st.prevI;
  }
  geq = cap / h;
  return geq * (vNow - st.prevV);
}

/// MOS capacitances in companion-slot order, with their terminal pairs as
/// indices into {d, g, s, b}: gs, gd, gb, db, sb.
constexpr int kMosCapTerms[5][2] = {{1, 2}, {1, 0}, {1, 3}, {0, 3}, {2, 3}};
void mosCaps(const MosOp& op, double (&caps)[5]) {
  caps[0] = op.cgs;
  caps[1] = op.cgd;
  caps[2] = op.cgb;
  caps[3] = op.cdb;
  caps[4] = op.csb;
}

/// A MOS's first capacitance pair follows its eight Jacobian positions
/// (see the position layout in the constructor).
constexpr std::size_t kMosJacobian = 8;
}  // namespace

Mna::Mna(const Netlist& net, const Process& proc) : net_(net), proc_(proc) {
  const auto& devs = net_.devices();
  nNodeUnknowns_ = net_.nodeCount() - 1;
  branchOfDevice_.assign(devs.size(), kNone);
  std::size_t next = nNodeUnknowns_;
  for (std::size_t k = 0; k < devs.size(); ++k) {
    const DeviceType t = devs[k].type;
    if (t == DeviceType::VSource || t == DeviceType::Vcvs || t == DeviceType::Inductor)
      branchOfDevice_[k] = next++;
  }
  nUnknowns_ = next;

  // Register the union pattern: DC + transient companion + AC C-matrix
  // stamps for every device, so one structure serves every analysis mode.
  // Stamp positions per device, in the order assemble() adds them (a pair
  // (a, b) is the four positions aa, ab, bb, ba):
  //   R, C, diode:  pair (a, b)
  //   inductor:     (a,br) (b,br) (br,a) (br,b) (br,br)
  //   V source:     (p,br) (m,br) (br,p) (br,m)
  //   VCVS:         (p,br) (m,br) (br,p) (br,m) (br,cp) (br,cm)
  //   VCCS:         (p,cp) (p,cm) (m,cp) (m,cm)
  //   MOS:          (d,t) (s,t) for t = d, g, s, b; then the pairs of the
  //                 five capacitances in kMosCapTerms order
  const std::size_t maxPositions = 28 * devs.size() + nNodeUnknowns_;  // a MOS has 28
  num::CscBuilder bld(nUnknowns_);
  bld.reserve(maxPositions);
  std::vector<std::size_t> handles;  // builder handle per stamp position
  handles.reserve(maxPositions);
  auto reg = [&](std::size_t r, std::size_t c) {
    handles.push_back(r == kNone || c == kNone ? kNone : bld.add(r, c));
  };
  auto regPair = [&](std::size_t a, std::size_t b) {
    reg(a, a);
    reg(a, b);
    reg(b, b);
    reg(b, a);
  };
  stamps_.reserve(devs.size());
  for (std::size_t k = 0; k < devs.size(); ++k) {
    const Device& d = devs[k];
    DeviceStamp s;
    s.type = d.type;
    s.dev = k;
    for (std::size_t t = 0; t < d.nodes.size() && t < 4; ++t) s.row[t] = nodeIndex(d.nodes[t]);
    s.br = branchOfDevice_[k];
    s.slot = handles.size();
    s.companion = nCompanions_;
    const std::size_t* r = s.row;
    switch (d.type) {
      case DeviceType::Resistor:
      case DeviceType::Diode:
        regPair(r[0], r[1]);
        break;
      case DeviceType::Capacitor:
        regPair(r[0], r[1]);
        nCompanions_ += 1;
        break;
      case DeviceType::Inductor:
        reg(r[0], s.br);
        reg(r[1], s.br);
        reg(s.br, r[0]);
        reg(s.br, r[1]);
        reg(s.br, s.br);
        nCompanions_ += 1;
        break;
      case DeviceType::VSource:
      case DeviceType::Vcvs:
        reg(r[0], s.br);
        reg(r[1], s.br);
        reg(s.br, r[0]);
        reg(s.br, r[1]);
        if (d.type == DeviceType::Vcvs) {
          reg(s.br, r[2]);
          reg(s.br, r[3]);
        }
        break;
      case DeviceType::ISource:
        break;
      case DeviceType::Vccs:
        reg(r[0], r[2]);
        reg(r[0], r[3]);
        reg(r[1], r[2]);
        reg(r[1], r[3]);
        break;
      case DeviceType::Mos:
        for (std::size_t t = 0; t < 4; ++t) {
          reg(r[0], r[t]);
          reg(r[2], r[t]);
        }
        for (const auto& pair : kMosCapTerms) regPair(r[pair[0]], r[pair[1]]);
        nCompanions_ += 5;
        break;
    }
    stamps_.push_back(s);
  }
  const std::size_t gminFirst = handles.size();
  for (std::size_t i = 0; i < nNodeUnknowns_; ++i) reg(i, i);

  std::vector<std::size_t> slotOf;
  pattern_ = bld.finalize<double>(slotOf);
  slots_.reserve(gminFirst);
  for (std::size_t p = 0; p < gminFirst; ++p)
    slots_.push_back(handles[p] == kNone ? kNone : slotOf[handles[p]]);
  gminSlots_.reserve(nNodeUnknowns_);
  for (std::size_t p = gminFirst; p < handles.size(); ++p)
    gminSlots_.push_back(slotOf[handles[p]]);
}

core::cache::Digest128 Mna::patternDigest() const {
  core::cache::Hasher128 h;
  h.mixString("mna-pattern");
  h.mix(nUnknowns_);
  for (std::size_t p : pattern_.colPtr) h.mix(p);
  for (std::size_t r : pattern_.row) h.mix(r);
  return h.digest();
}

std::size_t Mna::nodeIndex(NodeId n) const { return n == kGround ? kNone : n - 1; }

double Mna::nodeVoltage(const num::VecD& x, NodeId n) const {
  return n == kGround ? 0.0 : x.at(n - 1);
}

std::size_t Mna::branchIndex(std::size_t deviceIndex) const {
  return branchOfDevice_.at(deviceIndex);
}

void Mna::assemble(const num::VecD& x, const AssemblyOptions& opt, std::vector<double>* jacobian,
                   num::VecD* residual) const {
  if (x.size() != nUnknowns_) throw std::invalid_argument("Mna::assemble: state size mismatch");
  if (opt.companions && opt.companions->size() != nCompanions_)
    throw std::invalid_argument("Mna::assemble: companion state size mismatch");
  if (jacobian) jacobian->assign(pattern_.val.size(), 0.0);
  if (residual) residual->assign(nUnknowns_, 0.0);

  const auto& devs = net_.devices();
  const bool transient = opt.time >= 0.0;
  const double vtherm = proc_.kT() / 1.602176634e-19;
  auto v = [&](std::size_t row) { return row == kNone ? 0.0 : x[row]; };
  auto addF = [&](std::size_t row, double val) {
    if (residual && row != kNone) (*residual)[row] += val;
  };
  auto addJ = [&](std::size_t pos, double val) {
    if (jacobian && slots_[pos] != kNone) (*jacobian)[slots_[pos]] += val;
  };
  // Conductance-style stamp of current i / conductance g on pair (a, b).
  auto stampPair = [&](std::size_t a, std::size_t b, std::size_t pos, double i, double g) {
    addF(a, i);
    addF(b, -i);
    addJ(pos, g);
    addJ(pos + 1, -g);
    addJ(pos + 2, g);
    addJ(pos + 3, -g);
  };
  auto state = [&](std::size_t c) {
    return opt.companions ? (*opt.companions)[c] : CompanionState{};
  };

  for (const DeviceStamp& s : stamps_) {
    const Device& d = devs[s.dev];
    const std::size_t* r = s.row;
    const std::size_t p = s.slot;
    switch (s.type) {
      case DeviceType::Resistor: {
        const double g = 1.0 / d.value;
        stampPair(r[0], r[1], p, g * (v(r[0]) - v(r[1])), g);
        break;
      }
      case DeviceType::Capacitor: {
        if (!transient) break;  // open at DC
        double geq;
        const double i = companionCurrent(d.value, v(r[0]) - v(r[1]), state(s.companion),
                                          opt.timestep, opt.trapezoidal, geq);
        stampPair(r[0], r[1], p, i, geq);
        break;
      }
      case DeviceType::Inductor: {
        const double i = x[s.br];
        addF(r[0], i);
        addF(r[1], -i);
        addJ(p, 1.0);
        addJ(p + 1, -1.0);
        // Branch equation.
        if (!transient) {
          addF(s.br, v(r[0]) - v(r[1]));  // short at DC
          addJ(p + 2, 1.0);
          addJ(p + 3, -1.0);
        } else {
          const CompanionState st = state(s.companion);
          // BE: v = (L/h)(i - iPrev);  trap: v = (2L/h)(i - iPrev) - vPrev.
          const double req = (opt.trapezoidal ? 2.0 : 1.0) * d.value / opt.timestep;
          const double extra = opt.trapezoidal ? -st.prevI : 0.0;  // prevI stores prev voltage
          addF(s.br, v(r[0]) - v(r[1]) - req * (x[s.br] - st.prevV) - extra);
          addJ(p + 2, 1.0);
          addJ(p + 3, -1.0);
          addJ(p + 4, -req);
        }
        break;
      }
      case DeviceType::VSource: {
        addF(r[0], x[s.br]);
        addF(r[1], -x[s.br]);
        addJ(p, 1.0);
        addJ(p + 1, -1.0);
        const double val = transient ? d.waveform.at(opt.time) : d.value * opt.sourceScale;
        addF(s.br, v(r[0]) - v(r[1]) - val);
        addJ(p + 2, 1.0);
        addJ(p + 3, -1.0);
        break;
      }
      case DeviceType::ISource: {
        const double val = transient ? d.waveform.at(opt.time) : d.value * opt.sourceScale;
        addF(r[0], val);
        addF(r[1], -val);
        break;
      }
      case DeviceType::Vcvs: {
        addF(r[0], x[s.br]);
        addF(r[1], -x[s.br]);
        addJ(p, 1.0);
        addJ(p + 1, -1.0);
        addF(s.br, v(r[0]) - v(r[1]) - d.value * (v(r[2]) - v(r[3])));
        addJ(p + 2, 1.0);
        addJ(p + 3, -1.0);
        addJ(p + 4, -d.value);
        addJ(p + 5, d.value);
        break;
      }
      case DeviceType::Vccs: {
        const double i = d.value * (v(r[2]) - v(r[3]));
        addF(r[0], i);
        addF(r[1], -i);
        addJ(p, d.value);
        addJ(p + 1, -d.value);
        addJ(p + 2, -d.value);
        addJ(p + 3, d.value);
        break;
      }
      case DeviceType::Diode: {
        double i, g;
        diodeEval(v(r[0]) - v(r[1]), d.diodeIs, vtherm, i, g);
        stampPair(r[0], r[1], p, i, g);
        break;
      }
      case DeviceType::Mos: {
        const double volts[4] = {v(r[0]), v(r[1]), v(r[2]), v(r[3])};
        const MosOp op = circuit::evalMos(d.mos, proc_, volts[0], volts[1], volts[2], volts[3]);
        addF(r[0], op.ids);
        addF(r[2], -op.ids);
        if (jacobian) {
          // Exact-to-model derivatives via central differences: robust across
          // region boundaries and the source/drain-swap branch of the model.
          constexpr double kH = 1e-6;
          for (std::size_t t = 0; t < 4; ++t) {
            double vp[4] = {volts[0], volts[1], volts[2], volts[3]};
            double vm[4] = {volts[0], volts[1], volts[2], volts[3]};
            vp[t] += kH;
            vm[t] -= kH;
            const double ip = circuit::evalMos(d.mos, proc_, vp[0], vp[1], vp[2], vp[3]).ids;
            const double im = circuit::evalMos(d.mos, proc_, vm[0], vm[1], vm[2], vm[3]).ids;
            const double didv = (ip - im) / (2.0 * kH);
            addJ(p + 2 * t, didv);
            addJ(p + 2 * t + 1, -didv);
          }
        }
        // Transient: intrinsic/junction caps as linear companions evaluated
        // at the present iterate (Meyer-style; charge errors are second order
        // in the step size and acceptable at level-1 accuracy).
        if (transient && opt.companions) {
          double caps[5];
          mosCaps(op, caps);
          for (std::size_t c = 0; c < 5; ++c) {
            const std::size_t a = r[kMosCapTerms[c][0]], b = r[kMosCapTerms[c][1]];
            double geq;
            const double i = companionCurrent(caps[c], v(a) - v(b), state(s.companion + c),
                                              opt.timestep, opt.trapezoidal, geq);
            stampPair(a, b, p + kMosJacobian + 4 * c, i, geq);
          }
        }
        break;
      }
    }
  }

  // gmin from every node to ground (Newton aid / dc path for floating nodes).
  if (opt.gmin > 0.0) {
    for (std::size_t i = 0; i < nNodeUnknowns_; ++i) {
      if (residual) (*residual)[i] += opt.gmin * x[i];
      if (jacobian) (*jacobian)[gminSlots_[i]] += opt.gmin;
    }
  }
}

AcSystem Mna::linearize(const num::VecD& xOp) const {
  // G = static Jacobian at the operating point (all nonlinear devices
  // linearized), with a tiny gmin for numerical robustness.
  AcSystem ac;
  AssemblyOptions opt;
  opt.gmin = 1e-12;
  assemble(xOp, opt, &ac.g, nullptr);

  ac.c.assign(pattern_.val.size(), 0.0);
  ac.b.assign(nUnknowns_, 0.0);
  auto addC = [&](std::size_t pos, double val) {
    if (slots_[pos] != kNone) ac.c[slots_[pos]] += val;
  };
  // Capacitance on pair (a, b): diagonals first, then the couplings.
  auto stampCap = [&](std::size_t pos, double cap) {
    addC(pos, cap);
    addC(pos + 2, cap);
    addC(pos + 1, -cap);
    addC(pos + 3, -cap);
  };

  const auto& devs = net_.devices();
  for (const DeviceStamp& s : stamps_) {
    const Device& d = devs[s.dev];
    const std::size_t* r = s.row;
    switch (s.type) {
      case DeviceType::Capacitor:
        stampCap(s.slot, d.value);
        break;
      case DeviceType::Inductor:
        // Branch row already has v_a - v_b from the DC short equation; add
        // the -sL i term through C.
        addC(s.slot + 4, -d.value);
        break;
      case DeviceType::Mos: {
        double caps[5];
        auto v = [&](std::size_t row) { return row == kNone ? 0.0 : xOp[row]; };
        mosCaps(circuit::evalMos(d.mos, proc_, v(r[0]), v(r[1]), v(r[2]), v(r[3])), caps);
        for (std::size_t c = 0; c < 5; ++c) stampCap(s.slot + kMosJacobian + 4 * c, caps[c]);
        break;
      }
      case DeviceType::VSource:
        ac.b[s.br] += d.acMag;
        break;
      case DeviceType::ISource:
        if (r[0] != kNone) ac.b[r[0]] -= d.acMag;
        if (r[1] != kNone) ac.b[r[1]] += d.acMag;
        break;
      default:
        break;
    }
  }
  return ac;
}

num::MatrixD Mna::toDense(const std::vector<double>& values) const {
  num::MatrixD m(nUnknowns_, nUnknowns_);
  for (std::size_t col = 0; col < nUnknowns_; ++col)
    for (std::size_t k = pattern_.colPtr[col]; k < pattern_.colPtr[col + 1]; ++k)
      m(pattern_.row[k], col) = values[k];
  return m;
}

CompanionStates Mna::updateCompanions(const num::VecD& x, const CompanionStates* prev, double h,
                                      bool trapezoidal) const {
  CompanionStates out(nCompanions_);
  auto v = [&](std::size_t row) { return row == kNone ? 0.0 : x.at(row); };
  // Capacitance `cap` now at branch voltage vNow: its current follows from
  // the state it was integrated from (zero at the DC starting point).
  auto advance = [&](std::size_t c, double cap, double vNow) {
    double geq, iNow = 0.0;
    if (prev) iNow = companionCurrent(cap, vNow, (*prev)[c], h, trapezoidal, geq);
    out[c] = CompanionState{vNow, iNow};
  };

  const auto& devs = net_.devices();
  for (const DeviceStamp& s : stamps_) {
    const Device& d = devs[s.dev];
    const std::size_t* r = s.row;
    switch (s.type) {
      case DeviceType::Capacitor:
        advance(s.companion, d.value, v(r[0]) - v(r[1]));
        break;
      case DeviceType::Inductor:
        // prevV stores current, prevI stores voltage (see assemble()).
        out[s.companion] = CompanionState{x.at(s.br), v(r[0]) - v(r[1])};
        break;
      case DeviceType::Mos: {
        double caps[5];
        mosCaps(circuit::evalMos(d.mos, proc_, v(r[0]), v(r[1]), v(r[2]), v(r[3])), caps);
        for (std::size_t c = 0; c < 5; ++c)
          advance(s.companion + c, caps[c], v(r[kMosCapTerms[c][0]]) - v(r[kMosCapTerms[c][1]]));
        break;
      }
      default:
        break;
    }
  }
  return out;
}

std::vector<std::pair<std::string, MosOp>> Mna::mosOperatingPoints(const num::VecD& x) const {
  std::vector<std::pair<std::string, MosOp>> out;
  for (const Device& d : net_.devices()) {
    if (d.type != DeviceType::Mos) continue;
    out.emplace_back(d.name, circuit::evalMos(d.mos, proc_, nodeVoltage(x, d.nodes[0]),
                                              nodeVoltage(x, d.nodes[1]),
                                              nodeVoltage(x, d.nodes[2]),
                                              nodeVoltage(x, d.nodes[3])));
  }
  return out;
}

}  // namespace amsyn::sim
