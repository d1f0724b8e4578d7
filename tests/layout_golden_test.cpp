// Golden differential tests for the two cell-layout kernels, routeCells and
// placeCells.  Every fixture reduces a kernel's output to a text digest that
// pins the result bit for bit: per-net reports, the IEEE bits of every
// floating-point total, a hash of the ordered wire list, and the work
// counters (route.expansions, place.moves_*) the call added.  The goldens
// in tests/golden/layout_kernels.golden were captured from the map-based
// router and the allocating placer cost these kernels replaced, so a
// passing suite means the rewrite reproduces the old layouts exactly.
//
// On a mismatch the test prints the fixture's actual digest between
// "[name]" and "[end]" markers, in the golden file's own format.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "core/celllayout.hpp"
#include "core/metrics.hpp"
#include "layout/cell/modgen.hpp"
#include "layout/cell/place.hpp"
#include "layout/cell/route.hpp"
#include "sizing/builders.hpp"

namespace lay = amsyn::layout;
namespace geom = amsyn::geom;
namespace ckt = amsyn::circuit;
namespace core = amsyn::core;

#ifndef AMSYN_GOLDEN_DIR
#error "AMSYN_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace {

const ckt::Process& proc() { return ckt::defaultProcess(); }

std::string bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

std::uint64_t counterTotal(const char* name) {
  return core::metrics::registry().total(name);
}

/// FNV-1a over the ordered wire list: layer, rect and net of every shape.
std::uint64_t wireHash(const std::vector<geom::Shape>& wires) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& w : wires) {
    mix(static_cast<std::uint64_t>(w.layer));
    mix(static_cast<std::uint64_t>(w.rect.x0));
    mix(static_cast<std::uint64_t>(w.rect.y0));
    mix(static_cast<std::uint64_t>(w.rect.x1));
    mix(static_cast<std::uint64_t>(w.rect.y1));
    for (char c : w.net) mix(static_cast<unsigned char>(c));
    mix(0xffu);
  }
  return h;
}

std::string routeDigest(const std::vector<geom::CellInstance>& placed,
                        const std::vector<lay::RouteNet>& nets,
                        const lay::RouterOptions& opts = {}) {
  const std::uint64_t before = counterTotal("route.expansions");
  const auto r = lay::routeCells(placed, nets, proc(), opts);
  const std::uint64_t expansions = counterTotal("route.expansions") - before;
  std::ostringstream o;
  for (const auto& [name, rep] : r.nets)
    o << "net " << name << " routed=" << rep.routed << " length=" << bits(rep.lengthLambda)
      << " vias=" << rep.vias << " symmetric=" << rep.symmetricRealized
      << " cap=" << bits(rep.estimatedCap) << " cap_met=" << rep.capBoundMet << "\n";
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(wireHash(r.layout.wires)));
  o << "all_routed=" << r.allRouted << " total=" << bits(r.totalLengthLambda)
    << " exposure=" << bits(r.crosstalkExposureLambda) << "\n"
    << "wires=" << r.layout.wires.size() << " hash=" << hash << "\n"
    << "route.expansions=" << expansions << "\n";
  return o.str();
}

std::string placeDigest(const std::vector<lay::PlacementComponent>& comps,
                        const lay::PlacerOptions& opts) {
  const std::uint64_t attempted0 = counterTotal("place.moves_attempted");
  const std::uint64_t accepted0 = counterTotal("place.moves_accepted");
  const auto p = lay::placeCells(comps, opts);
  std::ostringstream o;
  for (const auto& inst : p.instances)
    o << "inst " << inst.name << " variant=" << p.variantChosen.at(inst.name)
      << " orient=" << geom::toString(inst.placement.orient) << " dx=" << inst.placement.dx
      << " dy=" << inst.placement.dy << "\n";
  const geom::Rect& bb = p.boundingBox;
  o << "bbox=" << bb.x0 << "," << bb.y0 << "," << bb.x1 << "," << bb.y1
    << " overlap_free=" << p.overlapFree << "\n"
    << "wirelength=" << bits(p.wirelength) << " symmetry_error=" << bits(p.symmetryError)
    << " best_cost=" << bits(p.stats.bestCost) << "\n"
    << "stats moves=" << p.stats.movesAttempted << " accepted=" << p.stats.movesAccepted
    << " stages=" << p.stats.stages << "\n"
    << "place.moves_attempted=" << counterTotal("place.moves_attempted") - attempted0
    << " place.moves_accepted=" << counterTotal("place.moves_accepted") - accepted0 << "\n";
  return o.str();
}

/// The golden digest of `fixture`: the lines between "[fixture]" and "[end]".
std::string golden(const std::string& fixture) {
  std::ifstream in(std::string(AMSYN_GOLDEN_DIR) + "/layout_kernels.golden");
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

/// A hand-drawn routing fixture: one master on a lattice of routing
/// pitches (24 units).  An n-well frame fixes the routing area, so lattice
/// point (gx, gy) is grid node (gx + 3, gy + 3) under the default 72-unit
/// margin; wells never block routing.  Blocks and pins stay inside the
/// frame (1 <= gx, gy < size).
struct LatticeCell {
  static constexpr geom::Coord kPitch = 24;
  geom::CellMaster master;

  explicit LatticeCell(int size) {
    master.name = "lattice";
    master.shapes.push_back({geom::Layer::NWell, {0, 0, kPitch * size, kPitch * size}, ""});
  }
  void block(geom::Layer l, int gx, int gy) {
    master.shapes.push_back(
        {l, {kPitch * gx - 1, kPitch * gy - 1, kPitch * gx + 1, kPitch * gy + 1}, ""});
  }
  void wall(int gx, int gy) {
    for (auto l : {geom::Layer::Poly, geom::Layer::Metal1, geom::Layer::Metal2})
      block(l, gx, gy);
  }
  /// Leave only metal1 open at (gx, gy).
  void metal1Only(int gx, int gy) {
    block(geom::Layer::Poly, gx, gy);
    block(geom::Layer::Metal2, gx, gy);
  }
  void pin(const std::string& net, int gx, int gy) {
    master.pins.push_back({net, geom::Layer::Metal1,
                           {kPitch * gx - 2, kPitch * gy - 2, kPitch * gx + 2,
                            kPitch * gy + 2}});
  }
  std::vector<geom::CellInstance> placed() const {
    return {geom::CellInstance{"lattice", &master, {}}};
  }
};

lay::RouteNet net(const std::string& name, lay::WireClass cls = lay::WireClass::Quiet,
                  double capBound = 0.0) {
  return {name, cls, capBound, std::nullopt};
}

ckt::MosParams nmos(double w) { return {ckt::MosType::Nmos, w, 2e-6, 1, 0.0, 1.0}; }

/// The cell the quickstart example lays out on its final attempt: its
/// topology and design point, rebuilt into the flow's testbench netlist and
/// laid out exactly as the flow's layout stage does.
struct QuickstartCell {
  static constexpr double kDesignPoint[] = {
      0x1.9e3aa1097591dp-17, 0x1.e800877631bc9p-15, 0x1.45f306dc9c883p-2,
      0x1.3333333333333p-2,  0x1p-2,                0x1.3333333333333p-2,
      0x1.5c5ca18875p-40};
  static constexpr std::uint64_t kLayoutSeed = 2;  // flow seed 1 + attempt 1
  core::CellLayoutResult cell;

  QuickstartCell() {
    const auto* builder =
        amsyn::sizing::NetlistBuilderRegistry::instance().find("two-stage-miller");
    const std::vector<double> x(std::begin(kDesignPoint), std::end(kDesignPoint));
    const auto netlist = (*builder)(x, proc(), amsyn::sizing::OpampTestbench{5e-12, 2.2, true});
    core::CellLayoutOptions opts;
    opts.seed = kLayoutSeed;
    cell = core::layoutCellGeometry(netlist, proc(), opts);
  }

  std::vector<lay::RouteNet> nets() const {
    std::vector<lay::RouteNet> out;
    for (const auto& [name, report] : cell.routing.nets) {
      (void)report;
      out.push_back(net(name));
    }
    return out;
  }
};

}  // namespace

// ------------------------------------------------------------- routing

TEST(LayoutGolden, RouteQuickstartCell) {
  const QuickstartCell qs;
  ASSERT_TRUE(qs.cell.success);
  expectGolden("route.quickstart", routeDigest(qs.cell.placement.instances, qs.nets()));
}

TEST(LayoutGolden, RouteRipUpSecondPass) {
  // Net b starts in a pocket whose only exit is the metal1 doorway at
  // (5,6).  Net a's shortest path runs through that doorway, so routing a
  // first walls b in: the first pass fails b, and the second pass routes b
  // first and sends a around.
  LatticeCell c(12);
  c.wall(4, 5);
  c.wall(6, 5);
  c.wall(5, 4);
  c.metal1Only(5, 5);
  c.metal1Only(5, 6);
  c.pin("b", 5, 5);
  c.pin("b", 9, 9);
  c.pin("a", 4, 6);
  c.pin("a", 6, 6);
  expectGolden("route.ripup", routeDigest(c.placed(), {net("a"), net("b")}));
}

TEST(LayoutGolden, RouteSymmetricNetMirrorsFromPeer) {
  // outn mirrors outp's path about the area's vertical axis (lattice x = 6);
  // bn's mirror image is walled at (9,10), so it falls back to the maze.
  LatticeCell c(12);
  c.pin("outp", 2, 3);
  c.pin("outp", 4, 8);
  c.pin("outn", 10, 3);
  c.pin("outn", 8, 8);
  c.pin("bp", 1, 10);
  c.pin("bp", 4, 10);
  c.pin("bn", 11, 10);
  c.pin("bn", 8, 10);
  c.wall(9, 10);
  auto outn = net("outn");
  outn.symmetricPeer = "outp";
  auto bn = net("bn");
  bn.symmetricPeer = "bp";
  expectGolden("route.symmetric",
               routeDigest(c.placed(), {net("outp"), outn, net("bp"), bn}));
}

TEST(LayoutGolden, RouteCapacitanceBoundedNets) {
  // c1's bound cannot be met, c2's can; c3 is a three-pin net.
  LatticeCell c(12);
  c.pin("c1", 2, 2);
  c.pin("c1", 9, 4);
  c.pin("c2", 2, 9);
  c.pin("c2", 6, 7);
  c.pin("c3", 3, 6);
  c.pin("c3", 10, 10);
  c.pin("c3", 10, 6);
  expectGolden("route.capbound",
               routeDigest(c.placed(), {net("c1", lay::WireClass::Quiet, 1e-18),
                                        net("c2", lay::WireClass::Quiet, 1e-9),
                                        net("c3", lay::WireClass::Quiet, 1e-12)}));
}

TEST(LayoutGolden, RouteNoisyBesideSensitive) {
  LatticeCell c(12);
  c.pin("clk", 2, 4);
  c.pin("clk", 10, 4);
  c.pin("vin", 2, 5);
  c.pin("vin", 10, 5);
  c.pin("vb", 2, 6);
  c.pin("vb", 10, 6);
  expectGolden("route.crosstalk",
               routeDigest(c.placed(), {net("clk", lay::WireClass::Noisy),
                                        net("vin", lay::WireClass::Sensitive),
                                        net("vb", lay::WireClass::Quiet)}));
}

TEST(LayoutGolden, RouteWalledPinExhaustsTheGrid) {
  // w's second pin is walled in on every layer: each pass's search floods
  // the whole reachable grid and fails; ok still routes.
  LatticeCell c(12);
  c.pin("w", 2, 2);
  c.pin("w", 8, 8);
  c.wall(7, 8);
  c.wall(9, 8);
  c.wall(8, 7);
  c.wall(8, 9);
  c.metal1Only(8, 8);
  c.pin("ok", 3, 10);
  c.pin("ok", 10, 3);
  expectGolden("route.walled", routeDigest(c.placed(), {net("ok"), net("w")}));
}

// ------------------------------------------------------------- placement

TEST(LayoutGolden, PlaceQuickstartCell) {
  const QuickstartCell qs;
  lay::PlacerOptions opts;
  opts.seed = QuickstartCell::kLayoutSeed;
  expectGolden("place.quickstart", placeDigest(qs.cell.components, opts));
}

TEST(LayoutGolden, PlaceWeightedSymmetricPair) {
  // A folded differential pair with its tail device, sensitivity weights on
  // two nets, and a strong symmetry term.
  lay::MosGenOptions fold2;
  fold2.fingers = 2;
  std::vector<lay::PlacementComponent> comps(3);
  comps[0].name = "M1";
  comps[0].variants = {
      lay::generateMos("M1", nmos(20e-6), "n1", "inp", "tail", "0", proc()),
      lay::generateMos("M1", nmos(20e-6), "n1", "inp", "tail", "0", proc(), fold2)};
  comps[0].symmetryPeer = "M2";
  comps[1].name = "M2";
  comps[1].variants = {
      lay::generateMos("M2", nmos(20e-6), "n2", "inn", "tail", "0", proc()),
      lay::generateMos("M2", nmos(20e-6), "n2", "inn", "tail", "0", proc(), fold2)};
  comps[1].symmetryPeer = "M1";
  comps[2].name = "M5";
  comps[2].variants = {lay::generateMos("M5", nmos(20e-6), "tail", "nb", "0", "0", proc())};
  lay::PlacerOptions opts;
  opts.seed = 5;
  opts.symmetryWeight = 8.0;
  opts.netWeights = {{"tail", 3.0}, {"n1", 0.5}};
  expectGolden("place.symmetric", placeDigest(comps, opts));
}

TEST(LayoutGolden, PlaceSingleComponent) {
  std::vector<lay::PlacementComponent> comps(1);
  comps[0].name = "R1";
  comps[0].variants = {lay::generateResistor("R1", 5e3, "a", "b", proc())};
  lay::PlacerOptions opts;
  opts.seed = 2;
  expectGolden("place.single", placeDigest(comps, opts));
}
