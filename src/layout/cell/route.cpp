#include "layout/cell/route.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace amsyn::layout {

using geom::CellInstance;
using geom::Coord;
using geom::Layer;
using geom::Rect;
using geom::Shape;

namespace {

constexpr int kLayers = 3;  // 0 = poly, 1 = metal1, 2 = metal2
constexpr int kFree = -1;
constexpr int kBlocked = -2;

Layer layerOf(int l) {
  switch (l) {
    case 0: return Layer::Poly;
    case 1: return Layer::Metal1;
    default: return Layer::Metal2;
  }
}

int indexOf(Layer l) {
  switch (l) {
    case Layer::Poly: return 0;
    case Layer::Metal1: return 1;
    case Layer::Metal2: return 2;
    default: return -1;
  }
}

/// The routing lattice.  Node (layer, x, y) has the flat index
/// (layer * nx + x) * ny + y, so ascending indices are exactly
/// lexicographic (layer, x, y) order.
class Grid {
 public:
  Grid(Rect area, Coord pitch) : area_(area), pitch_(pitch) {
    nx_ = static_cast<int>(area.width() / pitch) + 1;
    ny_ = static_cast<int>(area.height() / pitch) + 1;
    plane_ = nx_ * ny_;
    overDevice_.assign(static_cast<std::size_t>(plane_), 0);
  }

  int size() const { return kLayers * plane_; }
  int plane() const { return plane_; }
  int ny() const { return ny_; }
  int index(int l, int x, int y) const { return (l * nx_ + x) * ny_ + y; }
  int layer(int n) const { return n / plane_; }
  int x(int n) const { return n % plane_ / ny_; }
  int y(int n) const { return n % ny_; }
  bool hasX(int x) const { return x >= 0 && x < nx_; }
  bool hasY(int y) const { return y >= 0 && y < ny_; }

  geom::Point world(int n) const {
    return {area_.x0 + static_cast<Coord>(x(n)) * pitch_,
            area_.y0 + static_cast<Coord>(y(n)) * pitch_};
  }
  int nearest(int layer, geom::Point p) const {
    const int x = static_cast<int>((p.x - area_.x0 + pitch_ / 2) / pitch_);
    const int y = static_cast<int>((p.y - area_.y0 + pitch_ / 2) / pitch_);
    return index(layer, std::clamp(x, 0, nx_ - 1), std::clamp(y, 0, ny_ - 1));
  }

  void setOverDevice(int n) { overDevice_[static_cast<std::size_t>(n % plane_)] = 1; }
  bool overDevice(int x, int y) const {
    return overDevice_[static_cast<std::size_t>(x * ny_ + y)] != 0;
  }

  /// Visit every node of layer `l` whose center lies inside `r`.
  template <typename Fn>
  void forNodesIn(int l, const Rect& r, Fn&& fn) const {
    const int x0 = std::max(0, static_cast<int>((r.x0 - area_.x0 + pitch_ - 1) / pitch_));
    const int y0 = std::max(0, static_cast<int>((r.y0 - area_.y0 + pitch_ - 1) / pitch_));
    const int x1 = std::min<int>(nx_ - 1, static_cast<int>((r.x1 - area_.x0) / pitch_));
    const int y1 = std::min<int>(ny_ - 1, static_cast<int>((r.y1 - area_.y0) / pitch_));
    for (int x = x0; x <= x1; ++x)
      for (int y = y0; y <= y1; ++y) {
        const int n = index(l, x, y);
        if (r.contains(world(n))) fn(n);
      }
  }

 private:
  Rect area_;
  Coord pitch_;
  int nx_ = 0, ny_ = 0, plane_ = 0;
  std::vector<char> overDevice_;
};

/// Maze-search state for one routeCells call, one slot per grid node.  A
/// slot is valid only while its stamp equals the current epoch, so a new
/// search or node set starts by bumping an epoch, never by clearing.
struct SearchState {
  explicit SearchState(int nodes)
      : dist(static_cast<std::size_t>(nodes)),
        parent(static_cast<std::size_t>(nodes)),
        reached(static_cast<std::size_t>(nodes), 0),
        target(static_cast<std::size_t>(nodes), 0),
        member(static_cast<std::size_t>(nodes), 0) {}

  std::vector<int> dist, parent;     ///< valid where reached == search
  std::vector<std::uint32_t> reached, target;
  std::vector<std::uint32_t> member; ///< node set: connected tree or path cloud
  std::uint32_t search = 0, set = 0;
  /// Binary min-heap of (dist << 32 | node) keys: the same pop order as a
  /// heap of (dist, (layer, x, y)) pairs.
  std::vector<std::uint64_t> heap;

  void push(int d, int n) {
    heap.push_back(static_cast<std::uint64_t>(d) << 32 | static_cast<std::uint32_t>(n));
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  std::uint64_t pop() {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::uint64_t key = heap.back();
    heap.pop_back();
    return key;
  }
};

}  // namespace

RouteResult routeCells(const std::vector<CellInstance>& placed,
                       const std::vector<RouteNet>& nets, const circuit::Process& proc,
                       const RouterOptions& opts) {
  AMSYN_SPAN("routing");
  std::uint64_t expansions = 0;  // maze-search node visits, all nets/passes
  RouteResult result;
  result.layout.instances = placed;

  Rect area;
  for (const auto& inst : placed) area = area.unionWith(inst.boundingBox());
  area = area.inflated(opts.margin);

  // --- collect pins per net ---
  std::map<std::string, std::vector<geom::Pin>> pinsOf;
  for (const auto& inst : placed)
    for (const auto& pin : inst.transformedPins()) pinsOf[pin.name].push_back(pin);

  std::map<std::string, int> netIndex;
  for (std::size_t i = 0; i < nets.size(); ++i) netIndex[nets[i].name] = static_cast<int>(i);
  auto classOf = [&](int idx) { return nets[static_cast<std::size_t>(idx)].wireClass; };

  const Coord axisX = area.center().x;  // symmetry axis for mirrored nets

  // --- the grid every pass starts from: device blockages, then pin nodes
  // (pins are legal entry points for their net) ---
  Grid grid(area, opts.pitch);
  std::vector<int> baseOwner(static_cast<std::size_t>(grid.size()), kFree);
  for (const auto& inst : placed) {
    for (const auto& shape : inst.transformedShapes()) {
      const Rect grown = shape.rect.inflated(opts.wireWidth / 2 + 2);
      int l = -1;
      switch (shape.layer) {
        case Layer::Poly:
        case Layer::NDiff:
        case Layer::PDiff: l = 0; break;
        case Layer::Metal1:
        case Layer::Contact: l = 1; break;
        case Layer::Metal2:
        case Layer::Via: l = 2; break;
        default: break;
      }
      if (l >= 0) grid.forNodesIn(l, grown, [&](int n) { baseOwner[n] = kBlocked; });
    }
    // Metal2 over the device body is allowed but penalized.
    grid.forNodesIn(2, inst.boundingBox(), [&](int n) { grid.setOverDevice(n); });
  }
  // pinSlots[net][pin] = the pin's grid nodes; empty for nets with fewer
  // than two physical pins, which are not routed.
  std::vector<std::vector<std::vector<int>>> pinSlots(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const RouteNet& rn = nets[i];
    auto pit = pinsOf.find(rn.name);
    if (pit == pinsOf.end() || pit->second.size() < 2) continue;
    for (const auto& pin : pit->second) {
      std::vector<int> nodes;
      const int l = indexOf(pin.layer);
      if (l < 0) continue;
      grid.forNodesIn(l, pin.rect, [&](int n) { nodes.push_back(n); });
      if (nodes.empty()) nodes.push_back(grid.nearest(l, pin.rect.center()));
      for (int n : nodes) baseOwner[static_cast<std::size_t>(n)] = netIndex[rn.name];
      pinSlots[i].push_back(std::move(nodes));
    }
  }

  SearchState st(grid.size());
  std::vector<int> owner;
  std::vector<std::vector<int>> paths(nets.size());  // this pass's node list per net
  std::vector<char> hasPath(nets.size(), 0), symRealized(nets.size(), 0);

  // --- maze-route one net: Dijkstra from the connected tree to each
  // further pin in turn ---
  std::vector<int> connected;
  auto routeNet = [&](std::size_t netIdx) -> bool {
    const RouteNet& rn = nets[netIdx];
    const auto& slots = pinSlots[netIdx];
    if (slots.empty()) return true;  // nothing to do (single pin)
    const int me = static_cast<int>(netIdx);
    const bool hostile = rn.wireClass != WireClass::Quiet;
    const int capStep = rn.capBound > 0.0 ? 2 : 0;

    const std::uint32_t tree = ++st.set;
    connected.clear();
    auto link = [&](int n) {
      if (st.member[n] == tree) return;
      st.member[n] = tree;
      connected.push_back(n);
    };
    for (int n : slots[0]) link(n);
    std::vector<int> segments;

    for (std::size_t t = 1; t < slots.size(); ++t) {
      const std::uint32_t search = ++st.search;
      for (int n : slots[t]) st.target[n] = search;
      st.heap.clear();
      for (int s : connected) {
        st.reached[s] = search;
        st.dist[s] = 0;
        st.parent[s] = -1;
        st.push(0, s);
      }
      int found = -1;
      while (!st.heap.empty()) {
        const std::uint64_t key = st.pop();
        const int d = static_cast<int>(key >> 32);
        const int n = static_cast<int>(key & 0xffffffffu);
        ++expansions;
        if (d != st.dist[n]) continue;  // stale entry
        if (st.target[n] == search) {
          found = n;
          break;
        }
        const int nl = grid.layer(n), nx = grid.x(n), ny = grid.y(n);
        auto relax = [&](int m, int ml, int mx, int my) {
          const int own = owner[m];
          if (own == kBlocked || (own >= 0 && own != me)) return;
          int step = (ml == nl) ? 2 : opts.viaCost;
          if (ml == 0) step += opts.polyPenalty;
          if (ml == 2 && grid.overDevice(mx, my)) step += opts.overDevicePenalty;
          // Crosstalk: entering a node whose planar neighbors carry an
          // incompatible net (never the case for a quiet net).
          if (hostile) {
            auto exposed = [&](int a) {
              const int other = owner[a];
              if (other >= 0 && other != me && incompatible(classOf(other), rn.wireClass))
                step += opts.crosstalkPenalty;
            };
            if (grid.hasX(mx + 1)) exposed(m + grid.ny());
            if (grid.hasX(mx - 1)) exposed(m - grid.ny());
            if (grid.hasY(my + 1)) exposed(m + 1);
            if (grid.hasY(my - 1)) exposed(m - 1);
          }
          // ROAD mode: capacitance-bounded nets pay extra per unit length,
          // biasing them toward short, low-parasitic paths.
          step += capStep;
          const int nd = d + step;
          if (st.reached[m] != search || nd < st.dist[m]) {
            st.reached[m] = search;
            st.dist[m] = nd;
            st.parent[m] = n;
            st.push(nd, m);
          }
        };
        if (grid.hasX(nx + 1)) relax(n + grid.ny(), nl, nx + 1, ny);
        if (grid.hasX(nx - 1)) relax(n - grid.ny(), nl, nx - 1, ny);
        if (grid.hasY(ny + 1)) relax(n + 1, nl, nx, ny + 1);
        if (grid.hasY(ny - 1)) relax(n - 1, nl, nx, ny - 1);
        if (nl + 1 < kLayers) relax(n + grid.plane(), nl + 1, nx, ny);
        if (nl > 0) relax(n - grid.plane(), nl - 1, nx, ny);
      }
      if (found < 0) return false;
      // Trace back and claim the path.
      for (int cur = found; cur >= 0 && st.member[cur] != tree; cur = st.parent[cur]) {
        link(cur);
        segments.push_back(cur);
        owner[cur] = me;
      }
      for (int n : slots[t]) link(n);
    }
    // Record the pin nodes too so geometry connects to the pads.
    for (const auto& slot : slots) segments.insert(segments.end(), slot.begin(), slot.end());
    paths[netIdx] = std::move(segments);
    hasPath[netIdx] = 1;
    return true;
  };

  // Try mirroring a symmetric net from its already-routed peer.
  auto mirrorNet = [&](std::size_t netIdx) -> bool {
    const RouteNet& rn = nets[netIdx];
    if (!rn.symmetricPeer) return false;
    auto peer = netIndex.find(*rn.symmetricPeer);
    if (peer == netIndex.end() || !hasPath[static_cast<std::size_t>(peer->second)])
      return false;
    const int me = static_cast<int>(netIdx);

    std::vector<int> mirrored;
    for (int n : paths[static_cast<std::size_t>(peer->second)]) {
      const int m = grid.nearest(grid.layer(n), geom::mirrorX(grid.world(n), axisX));
      const int own = owner[m];
      if (own == kBlocked || (own >= 0 && own != me)) return false;
      mirrored.push_back(m);
    }
    for (int m : mirrored) owner[m] = me;
    // The mirrored cloud must touch all of this net's pins.  A rejected
    // mirror leaves its nodes claimed by this net.
    const std::uint32_t cloud = ++st.set;
    for (int m : mirrored) st.member[m] = cloud;
    for (const auto& slot : pinSlots[netIdx])
      if (std::none_of(slot.begin(), slot.end(),
                       [&](int n) { return st.member[n] == cloud; }))
        return false;
    paths[netIdx] = std::move(mirrored);
    hasPath[netIdx] = 1;
    return true;
  };

  // Routing passes with rip-up: failed nets get routed first next pass.
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t pass = 0; pass < opts.maxPasses; ++pass) {
    owner = baseOwner;
    std::fill(hasPath.begin(), hasPath.end(), 0);

    std::vector<std::size_t> failed;
    for (const std::size_t netIdx : order) {
      bool ok = false;
      if (nets[netIdx].symmetricPeer && mirrorNet(netIdx)) {
        ok = true;
        symRealized[netIdx] = 1;
      } else {
        ok = routeNet(netIdx);
        symRealized[netIdx] = 0;
      }
      if (!ok) failed.push_back(netIdx);
    }

    if (failed.empty() || pass + 1 == opts.maxPasses) {
      // --- emit geometry and reports from this pass ---
      double exposure = 0.0;
      std::vector<int> cloud;

      for (std::size_t i = 0; i < nets.size(); ++i) {
        const RouteNet& rn = nets[i];
        NetReport rep;
        rep.routed =
            std::find(failed.begin(), failed.end(), i) == failed.end() && hasPath[i];
        rep.symmetricRealized = symRealized[i] != 0;
        if (hasPath[i]) {
          cloud = paths[i];
          std::sort(cloud.begin(), cloud.end());
          cloud.erase(std::unique(cloud.begin(), cloud.end()), cloud.end());
          const std::uint32_t inCloud = ++st.set;
          for (int n : cloud) st.member[n] = inCloud;
          const Coord h = opts.wireWidth / 2;
          for (int n : cloud) {
            const int l = grid.layer(n);
            const geom::Point w = grid.world(n);
            // Pad at the node plus segments toward +x/+y cloud neighbors.
            result.layout.wires.push_back(
                Shape{layerOf(l), {w.x - h, w.y - h, w.x + h, w.y + h}, rn.name});
            if (grid.hasX(grid.x(n) + 1) && st.member[n + grid.ny()] == inCloud)
              result.layout.wires.push_back(
                  Shape{layerOf(l), {w.x - h, w.y - h, w.x + opts.pitch + h, w.y + h},
                        rn.name});
            if (grid.hasY(grid.y(n) + 1) && st.member[n + 1] == inCloud)
              result.layout.wires.push_back(
                  Shape{layerOf(l), {w.x - h, w.y - h, w.x + h, w.y + opts.pitch + h},
                        rn.name});
            // Vias: node present on the next layer up at the same (x, y).
            if (l + 1 < kLayers && st.member[n + grid.plane()] == inCloud) {
              ++rep.vias;
              result.layout.wires.push_back(
                  Shape{l == 0 ? Layer::Contact : Layer::Via,
                        {w.x - h, w.y - h, w.x + h, w.y + h}, rn.name});
            }
          }
          // Straps from each physical pin to its grid entry node (pins can
          // sit off-grid; the nearest-node fallback needs a jumper).
          const auto& slots = pinSlots[i];
          const auto& physical = pinsOf[rn.name];
          for (std::size_t pi = 0; pi < slots.size() && pi < physical.size(); ++pi) {
            if (slots[pi].empty()) continue;
            const geom::Point w = grid.world(slots[pi].front());
            const geom::Point pc = physical[pi].rect.center();
            result.layout.wires.push_back(
                Shape{physical[pi].layer,
                      {std::min(w.x, pc.x) - h, pc.y - h, std::max(w.x, pc.x) + h,
                       pc.y + h},
                      rn.name});
            result.layout.wires.push_back(
                Shape{physical[pi].layer,
                      {w.x - h, std::min(w.y, pc.y) - h, w.x + h, std::max(w.y, pc.y) + h},
                      rn.name});
          }
          rep.lengthLambda =
              static_cast<double>(cloud.size()) * static_cast<double>(opts.pitch) / 4.0;
          // Ground-cap estimate: area + fringe of the drawn wire.
          const double lenM = rep.lengthLambda * proc.lambda;
          const double wM = static_cast<double>(opts.wireWidth) / 4.0 * proc.lambda;
          rep.estimatedCap = lenM * wM * proc.caMetal1 + 2.0 * lenM * proc.cfMetal1;
          rep.capBoundMet = rn.capBound <= 0.0 || rep.estimatedCap <= rn.capBound;
          result.totalLengthLambda += rep.lengthLambda;

          // Crosstalk exposure against previously-reported nets.
          for (int n : cloud) {
            auto exposed = [&](int a) {
              const int other = owner[a];
              if (other >= 0 && other != static_cast<int>(i) &&
                  incompatible(classOf(other), rn.wireClass))
                exposure += static_cast<double>(opts.pitch) / 4.0 / 2.0;  // half per side
            };
            const int x = grid.x(n), y = grid.y(n);
            if (grid.hasX(x + 1)) exposed(n + grid.ny());
            if (grid.hasX(x - 1)) exposed(n - grid.ny());
            if (grid.hasY(y + 1)) exposed(n + 1);
            if (grid.hasY(y - 1)) exposed(n - 1);
          }
        }
        result.nets[rn.name] = rep;
      }
      result.crosstalkExposureLambda = exposure;
      result.allRouted = failed.empty();
      // One registry touch per routing run: the maze loop itself only bumps
      // a local tally.
      static const auto cExpansions =
          core::metrics::registry().counter("route.expansions");
      core::metrics::add(cExpansions, expansions);
      return result;
    }

    // Re-order: failed nets first on the next pass.
    std::vector<std::size_t> next = failed;
    for (std::size_t i : order)
      if (std::find(failed.begin(), failed.end(), i) == failed.end()) next.push_back(i);
    order = std::move(next);
  }
  return result;  // unreachable: loop always returns on the last pass
}

}  // namespace amsyn::layout
