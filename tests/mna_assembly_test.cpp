// Golden differential tests for the MNA assembler.  Every fixture reduces
// one assembly to a text digest that pins it bit for bit: the IEEE bits of
// every residual component and of every matrix entry whose bits are not
// +0.0 (so a -0.0 shows up too), with matrices scattered to dense form.
// The goldens in tests/golden/mna_assembly.golden were captured from the
// dense stamping switch (the former Mna::assemble into a dense matrix and
// Mna::acMatrices) that the stamp plan replaced, so a passing suite means
// the plan reproduces its Jacobians, residuals and (G, C, b)
// linearizations exactly in every assembly mode: DC, source/gmin
// continuation, transient without companion states, and backward-Euler and
// trapezoidal companions.
//
// On a mismatch the test prints the fixture's actual digest between
// "[name]" and "[end]" markers, in the golden file's own format.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "sim/mna.hpp"
#include "sizing/opamp.hpp"

namespace num = amsyn::num;
namespace sim = amsyn::sim;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

#ifndef AMSYN_GOLDEN_DIR
#error "AMSYN_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace {

const ckt::Process& proc() { return ckt::defaultProcess(); }

/// Opamp testbench plus one of every remaining device type, so the
/// fixtures cover every device the assembler stamps.
ckt::Netlist mixedNetlist() {
  ckt::Netlist net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc());
  net.addInductor("LX", "out", "lx1", 1e-6);
  net.addResistor("RX", "lx1", "0", 50.0);
  net.addDiode("DX", "lx1", "0", 1e-14);
  net.addVcvs("EX", "ex1", "0", "out", "0", 2.0);
  net.addResistor("RE", "ex1", "0", 1e4);
  net.addVccs("GX", "0", "gx1", "out", "0", 1e-4);
  net.addResistor("RG", "gx1", "0", 2e3);
  net.addISource("IX", "0", "gx1", 1e-6);
  return net;
}

std::string bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

void digestVector(std::ostream& o, const char* name, const num::VecD& v) {
  o << name << " n=" << v.size() << "\n";
  for (std::size_t i = 0; i < v.size(); ++i) o << name << " " << i << " " << bits(v[i]) << "\n";
}

/// Entries whose bits differ from +0.0, row-major.
void digestMatrix(std::ostream& o, const char* name, const num::MatrixD& m) {
  o << name << " n=" << m.rows() << "x" << m.cols() << "\n";
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (std::bit_cast<std::uint64_t>(m(r, c)) != 0)
        o << name << " " << r << " " << c << " " << bits(m(r, c)) << "\n";
}

/// The golden digest of `fixture`: the lines between "[fixture]" and "[end]".
std::string golden(const std::string& fixture) {
  std::ifstream in(std::string(AMSYN_GOLDEN_DIR) + "/mna_assembly.golden");
  std::string line, out;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside) {
      inside = line == "[" + fixture + "]";
      continue;
    }
    if (line == "[end]") return out;
    out += line + "\n";
  }
  return "<no golden for " + fixture + ">\n";
}

void expectGolden(const std::string& fixture, const std::string& actual) {
  const std::string expected = golden(fixture);
  EXPECT_EQ(actual, expected) << "fixture " << fixture;
  if (actual != expected) std::cout << "[" << fixture << "]\n" << actual << "[end]\n";
}

/// Random state vector spanning every MOS region (a little past the rails).
num::VecD randomState(num::Rng& rng, std::size_t n) {
  num::VecD x(n);
  for (auto& v : x) v = rng.uniform(-0.5, proc().vdd + 0.5);
  return x;
}

/// Random companion state for every storage element.  Companion slots run
/// in declaration order (a MOS holds five: gs, gd, gb, db, sb), which is the
/// order the golden's states were drawn in.
sim::CompanionStates randomCompanions(num::Rng& rng, const sim::Mna& mna) {
  sim::CompanionStates out(mna.companionCount());
  for (auto& st : out) {
    const double pv = rng.uniform(-1.0, 1.0);
    const double pi = rng.uniform(-1e-4, 1e-4);
    st = {pv, pi};
  }
  return out;
}

/// Jacobian and residual of one assembly, plus a check that the
/// residual-only assembly produces the same residual bits.
std::string assemblyDigest(const sim::Mna& mna, const num::VecD& x,
                           const sim::AssemblyOptions& aopt) {
  std::vector<double> j;
  num::VecD f;
  mna.assemble(x, aopt, &j, &f);
  num::VecD fOnly;
  mna.assemble(x, aopt, nullptr, &fOnly);
  EXPECT_EQ(fOnly, f) << "residual-only assembly differs";
  std::ostringstream o;
  digestVector(o, "f", f);
  digestMatrix(o, "J", mna.toDense(j));
  return o.str();
}

}  // namespace

TEST(MnaAssembly, JacobianAndResidualMatchGoldenInEveryMode) {
  const ckt::Netlist net = mixedNetlist();
  const sim::Mna mna(net, proc());
  num::Rng rng(123);
  for (int point = 0; point < 2; ++point) {
    const std::string tag = "." + std::to_string(point);
    const num::VecD x = randomState(rng, mna.size());

    expectGolden("assemble.dc" + tag, assemblyDigest(mna, x, {}));

    sim::AssemblyOptions cont;  // one rung of the source/gmin continuation
    cont.sourceScale = 0.35;
    cont.gmin = 1e-6;
    expectGolden("assemble.continuation" + tag, assemblyDigest(mna, x, cont));

    sim::AssemblyOptions bare;  // transient time point without companion states
    bare.time = 3e-7;
    bare.timestep = 1e-9;
    bare.gmin = 1e-12;
    expectGolden("assemble.tran_bare" + tag, assemblyDigest(mna, x, bare));

    const auto companions = randomCompanions(rng, mna);
    sim::AssemblyOptions be = bare;
    be.companions = &companions;
    expectGolden("assemble.tran_be" + tag, assemblyDigest(mna, x, be));

    sim::AssemblyOptions trap = be;
    trap.trapezoidal = true;
    expectGolden("assemble.tran_trap" + tag, assemblyDigest(mna, x, trap));
  }
}

TEST(MnaAssembly, AcLinearizationMatchesGolden) {
  const ckt::Netlist net = mixedNetlist();
  const sim::Mna mna(net, proc());
  num::Rng rng(321);
  for (int point = 0; point < 2; ++point) {
    const num::VecD xOp = randomState(rng, mna.size());
    const sim::AcSystem ac = mna.linearize(xOp);
    std::ostringstream o;
    digestMatrix(o, "G", mna.toDense(ac.g));
    digestMatrix(o, "C", mna.toDense(ac.c));
    digestVector(o, "b", ac.b);
    expectGolden("ac." + std::to_string(point), o.str());
  }
}

TEST(MnaAssembly, PatternDigestSeparatesStructures) {
  const ckt::Netlist netA = mixedNetlist();
  const sim::Mna a1(netA, proc()), a2(netA, proc());
  EXPECT_EQ(a1.patternDigest(), a2.patternDigest());  // same structure, same key

  // A grounded resistor on an existing node only restamps its diagonal and
  // leaves the union pattern (hence the digest) unchanged — that is the
  // cache working as intended.  A genuinely new coupling must change it.
  ckt::Netlist netB = mixedNetlist();
  netB.addResistor("RZ", "inp", "gx1", 1e6);  // new off-diagonal pair
  const sim::Mna b(netB, proc());
  EXPECT_NE(a1.patternDigest(), b.patternDigest());
}
