#include "topology/library.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>

#include "circuit/canonical.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/trace.hpp"
#include "sizing/eqmodel.hpp"
#include "topology/compose.hpp"

namespace amsyn::topology {

using num::Interval;
using sizing::SpecKind;
using sizing::SpecSet;

void TopologyLibrary::add(TopologyEntry entry) {
  if (!index_.emplace(entry.name, entries_.size()).second)
    throw std::invalid_argument("TopologyLibrary: duplicate topology name '" + entry.name +
                                "'");
  entries_.push_back(std::move(entry));
}

const TopologyEntry& TopologyLibrary::byName(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    std::string msg = "TopologyLibrary: no topology named '" + name + "'; available (" +
                      std::to_string(entries_.size()) + "):";
    for (const auto& [n, _] : index_) msg += " " + n;
    throw std::out_of_range(msg);
  }
  return entries_[it->second];
}

FeasibilityBounds boundsBySampling(const sizing::PerformanceModel& model,
                                   std::size_t gridPerAxis, double widen) {
  const auto& vars = model.variables();
  const std::size_t n = vars.size();
  FeasibilityBounds bounds;

  // Walk the full grid with a mixed-radix counter.
  std::vector<std::size_t> idx(n, 0);
  while (true) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = gridPerAxis == 1
                           ? 0.5
                           : static_cast<double>(idx[i]) / static_cast<double>(gridPerAxis - 1);
      const auto& v = vars[i];
      x[i] = (v.logScale && v.lo > 0) ? v.lo * std::pow(v.hi / v.lo, t)
                                      : v.lo + t * (v.hi - v.lo);
    }
    const auto perf = model.evaluate(x);
    for (const auto& [k, val] : perf) {
      if (k.rfind('_', 0) == 0) continue;  // skip meta performances
      auto [it, inserted] = bounds.emplace(k, Interval{val, val});
      if (!inserted)
        it->second = Interval{std::min(it->second.lo(), val), std::max(it->second.hi(), val)};
    }

    std::size_t d = 0;
    while (d < n && ++idx[d] == gridPerAxis) idx[d++] = 0;
    if (d == n) break;
  }

  // Widen conservatively: grid sampling underestimates the reachable hull.
  // A strictly positive hull (power, ugf, area, noise — quantities that are
  // positive by construction) widens in the log domain, so the lower bound
  // scales down but can never cross zero.  Everything else widens linearly
  // about the midpoint; when the sampled hull itself never went negative
  // (swing's max(0, .) floor, say), the widened lower bound is clamped at
  // zero — the model cannot produce what the bound would otherwise promise.
  for (auto& [k, b] : bounds) {
    if (b.lo() > 0.0) {
      const double mid = std::sqrt(b.lo() * b.hi());
      const double r = std::pow(std::sqrt(b.hi() / b.lo()), widen);
      b = Interval{mid / r, mid * r};
    } else {
      const double mid = b.mid(), half = b.width() / 2.0;
      double lo = mid - half * widen;
      if (b.lo() >= 0.0 && lo < 0.0) lo = 0.0;
      b = Interval{lo, mid + half * widen};
    }
  }
  return bounds;
}

std::vector<HeuristicRule> legacyOtaRules() {
  std::vector<HeuristicRule> rules;
  rules.push_back({"single stage suffices for moderate gain",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "gain_db" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound <= 45.0 ? 2.0 : -3.0;
                     return score;
                   }});
  rules.push_back({"no compensation: better for high speed",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "ugf" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound >= 2e7 ? 1.0 : 0.0;
                     return score;
                   }});
  rules.push_back({"one current branch: favored for low power",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "power" &&
                           (s.kind == SpecKind::Minimize || s.kind == SpecKind::LessEqual))
                         score += 1.0;
                     return score;
                   }});
  return rules;
}

std::vector<HeuristicRule> legacyTwoStageRules() {
  std::vector<HeuristicRule> rules;
  rules.push_back({"two gain stages needed above ~45 dB",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "gain_db" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound > 45.0 ? 3.0 : -1.0;
                     return score;
                   }});
  rules.push_back({"output stage gives rail-to-rail-ish swing",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "swing" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound >= 3.0 ? 1.5 : 0.0;
                     return score;
                   }});
  rules.push_back({"second branch costs power",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "power" && s.kind == SpecKind::Minimize)
                         score += -0.5;
                     return score;
                   }});
  return rules;
}

TopologySpace defaultTopologySpace() {
  // The AMSYN_TOPOLOGY_SPACE knob now arrives through the execution
  // context's config (parsed once in core::envknobs); the ambient context
  // reproduces the old process-global behavior exactly.
  switch (core::ExecutionContext::current().config().topologySpace) {
    case core::TopologySpaceKind::Generated:
      return TopologySpace::Generated;
    case core::TopologySpaceKind::Legacy:
      break;
  }
  return TopologySpace::Legacy;
}

TopologyLibrary buildAmplifierLibrary(const circuit::Process& proc, double loadCap,
                                      TopologySpace space) {
  if (space == TopologySpace::Default) space = defaultTopologySpace();
  if (space == TopologySpace::Generated) return buildGeneratedLibrary(proc, loadCap);

  TopologyLibrary lib;

  {
    TopologyEntry ota;
    ota.name = "five-transistor-ota";
    ota.model = std::make_shared<sizing::OtaEquationModel>(proc, loadCap);
    ota.bounds = boundsBySampling(*ota.model, 5);
    ota.complexity = 6;
    ota.rules = legacyOtaRules();
    lib.add(std::move(ota));
  }

  {
    TopologyEntry ts;
    ts.name = "two-stage-miller";
    ts.model = std::make_shared<sizing::TwoStageEquationModel>(proc, loadCap);
    ts.bounds = boundsBySampling(*ts.model, 4);
    ts.complexity = 9;
    ts.rules = legacyTwoStageRules();
    lib.add(std::move(ts));
  }

  return lib;
}

const TopologyLibrary& amplifierLibrary(const circuit::Process& proc, double loadCap,
                                        TopologySpace space) {
  if (space == TopologySpace::Default) space = defaultTopologySpace();
  core::cache::Hasher128 h;
  h.mix(static_cast<std::uint64_t>(space));
  circuit::hashProcess(h, proc);
  h.mixDouble(loadCap);
  const auto key = h.digest();

  // One slot per key, built at most once: concurrent first requests for the
  // same key wait on its once_flag, requests for other keys do not.  Map
  // nodes never move and are never erased, so returned references stay
  // valid; like the metrics registry, the map is leaked rather than torn
  // down at exit under a late caller.
  struct Slot {
    std::once_flag built;
    TopologyLibrary lib;
  };
  static std::mutex mu;
  static auto* memo = new std::map<core::cache::Digest128, Slot>();
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    slot = &(*memo)[key];
  }
  std::call_once(slot->built, [&] {
    AMSYN_SPAN("topology.library_build");
    slot->lib = buildAmplifierLibrary(proc, loadCap, space);
  });
  return slot->lib;
}

}  // namespace amsyn::topology
