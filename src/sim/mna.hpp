// Modified nodal analysis assembly.  The unknown vector is
//   x = [ v(1) .. v(N-1) | i(branch 0) .. i(branch B-1) ]
// where node 0 (ground) is eliminated and each voltage-defined element
// (V source, VCVS, inductor) contributes one branch-current unknown.
//
// One assembler serves every analysis: the DC Newton iteration asks for the
// nonlinear residual f(x) and Jacobian J(x); the AC/noise/AWE analyses ask
// for the linearized (G, C, b) triple at an operating point; the transient
// loop asks for residuals with capacitor/inductor companion models folded in.
//
// The constructor walks the netlist once into a stamp plan: the union
// sparsity pattern of every analysis mode (DC stamps, transient companion
// stamps, the AC C-matrix stamps and the gmin diagonal) frozen into one CSC
// structure, plus per-device value-slot handles.  Every assembly then
// evaluates each device and adds its stamps into those slots in netlist
// declaration order.  Matrices come back as values over pattern(); positions
// an analysis does not touch hold explicit zeros.  Both LU kernels consume
// the same values (sim/solver.hpp): the sparse one factors the CSC directly,
// the dense one scatters it into an n x n matrix whose off-pattern entries
// stay zero, so the two see identical systems.
//
// Assembly writes only into caller-owned storage; a const Mna is immutable
// and safe to share across threads.
#pragma once

#include <string>
#include <vector>

#include "circuit/mosmodel.hpp"
#include "circuit/netlist.hpp"
#include "core/evalcache.hpp"  // Hasher128 / Digest128 (header-only)
#include "numeric/matrix.hpp"
#include "numeric/sparse_lu.hpp"

namespace amsyn::sim {

using circuit::Netlist;
using circuit::Process;

/// Companion-model state for one energy-storage element during transient.
struct CompanionState {
  double prevV = 0.0;  ///< capacitor voltage / inductor current at t_{n}
  double prevI = 0.0;  ///< element current (cap) or voltage (ind) at t_{n}
};

/// Companion states of every storage element (each MOS contributes its five
/// capacitances), indexed by the assembler's companion slots.  Sized
/// Mna::companionCount(); built and advanced by Mna::updateCompanions.
using CompanionStates = std::vector<CompanionState>;

struct AssemblyOptions {
  double sourceScale = 1.0;  ///< scales independent sources (source stepping)
  double gmin = 0.0;         ///< conductance from every node to ground
  double time = -1.0;        ///< >= 0: transient mode, sources follow waveforms
  double timestep = 0.0;     ///< companion-model step (transient only)
  bool trapezoidal = false;  ///< trapezoidal vs backward-Euler companions
  /// Storage-element states (transient only).  Without them capacitors
  /// stamp from a zero state and MOS capacitances are left out.
  const CompanionStates* companions = nullptr;
};

/// Small-signal linearization at an operating point: G x + s C x = b, with
/// G and C as values over Mna::pattern() and b holding the AC magnitudes of
/// the independent sources.  Inductor/source branch rows are included (C
/// carries -L on inductor branch rows).
struct AcSystem {
  std::vector<double> g, c;
  num::VecD b;
};

class Mna {
 public:
  /// Builds the stamp plan.  Keeps references to `net` and `proc`: the Mna
  /// must not outlive either.  Device values are read live at each
  /// assembly, so a sweep may retune a source in place.
  Mna(const Netlist& net, const Process& proc);

  std::size_t size() const { return nUnknowns_; }
  std::size_t nodeUnknowns() const { return nNodeUnknowns_; }

  /// Index of a node voltage in x, or SIZE_MAX for ground.
  std::size_t nodeIndex(circuit::NodeId n) const;
  /// Voltage of node n under solution x (0 for ground).
  double nodeVoltage(const num::VecD& x, circuit::NodeId n) const;
  /// Branch-current index for voltage-defined device `deviceIndex`;
  /// SIZE_MAX when the device has no branch unknown.
  std::size_t branchIndex(std::size_t deviceIndex) const;

  /// The fixed structure every matrix is assembled over (values all zero):
  /// copy it to get a Jacobian whose `val` assemble() can fill.
  const num::CscMatrix<double>& pattern() const { return pattern_; }
  /// Digest of (n, colPtr, row) — the key under which structure-identical
  /// systems share one symbolic factorization (sim/solver.hpp).  Computed
  /// per call: only the sparse kernel needs it.
  core::cache::Digest128 patternDigest() const;

  /// Residual f(x) and (optionally) the Jacobian values over pattern().
  /// Sign convention: KCL rows sum currents *leaving* the node; a converged
  /// solution has f == 0.
  void assemble(const num::VecD& x, const AssemblyOptions& opt, std::vector<double>* jacobian,
                num::VecD* residual) const;

  /// Linearized system at operating point xOp (a tiny gmin keeps G
  /// invertible on floating nodes).
  AcSystem linearize(const num::VecD& xOp) const;

  /// Dense n x n copy of values over pattern(), for the dense-matrix
  /// consumers (AWE moments, the relaxed-DC sizing model).
  num::MatrixD toDense(const std::vector<double>& values) const;

  std::size_t companionCount() const { return nCompanions_; }
  /// Companion states after accepting solution x with step h under the
  /// given integration rule.  Without `prev` (the DC starting point) every
  /// element current is zero.
  CompanionStates updateCompanions(const num::VecD& x, const CompanionStates* prev, double h,
                                   bool trapezoidal) const;

  const Netlist& netlist() const { return net_; }
  const Process& process() const { return proc_; }

  /// Operating-point info for each MOS at solution x.
  std::vector<std::pair<std::string, circuit::MosOp>> mosOperatingPoints(
      const num::VecD& x) const;

 private:
  /// One device's entry in the stamp plan.  `slot` is the first of the
  /// device's stamp positions in slots_ (their layout per device type is
  /// documented in the constructor); `companion` its first companion slot.
  struct DeviceStamp {
    circuit::DeviceType type;
    std::size_t dev = 0;
    std::size_t row[4] = {};  ///< unknown index per terminal (SIZE_MAX = ground)
    std::size_t br = 0;       ///< branch unknown (V source, VCVS, inductor)
    std::size_t slot = 0;
    std::size_t companion = 0;
  };

  const Netlist& net_;
  const Process& proc_;
  std::size_t nNodeUnknowns_ = 0;
  std::size_t nUnknowns_ = 0;
  std::size_t nCompanions_ = 0;
  std::vector<std::size_t> branchOfDevice_;  // per device, SIZE_MAX if none
  std::vector<DeviceStamp> stamps_;          // declaration order
  std::vector<std::size_t> slots_;  // stamp position -> value index (SIZE_MAX = ground)
  std::vector<std::size_t> gminSlots_;  // node-diagonal value indices
  num::CscMatrix<double> pattern_;
};

}  // namespace amsyn::sim
