// Shared types of the ledger binary: what one run records and hands to the
// reporting side (perfbench/run.py) as a raw JSON document.
#pragma once

#include <cstdint>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// One output check; a failed check fails the whole run.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything a run measures.  The untraced half feeds the end-to-end
/// metrics; the traced half (filled only with --trace 1) the per-layer ones.
struct RunData {
  // --- untraced: the closed loop of public calls ---
  std::vector<double> callSeconds;  ///< every call of every repetition
  std::size_t passes = 0;
  /// Work counters moved by each repetition's calls (checks excluded).
  std::vector<std::map<std::string, std::uint64_t>> passCounters;
  /// Distinct designs of the run's input pool, each counted at the first
  /// repetition of its input set (later ones reproduce it bit for bit), so
  /// both depend on the seed only, never on how many repetitions fit.
  std::size_t designsAttempted = 0;
  std::size_t designsFailed = 0;
  std::map<std::string, std::size_t> failureReasons;  ///< why designs failed
  /// Every design of every repetition: the throughput count.
  std::size_t designsRun = 0;
  std::size_t designsRunFailed = 0;
  std::vector<double> powerW;       ///< returned designs, once per design
  std::vector<double> areaLambda2;  ///< laid-out designs, once per design
  std::vector<Check> checks;

  // --- traced: one repetition of the same calls ---
  SpanRecorder spans;
  std::vector<double> tracedCallSeconds;
  std::vector<double> untracedSetZeroSeconds;  ///< same calls, untraced
  std::map<std::string, std::uint64_t> callCounters;    ///< Σ over traced calls
  std::map<std::string, std::uint64_t> replayCounters;  ///< Σ over replays
  std::map<std::string, double> values;  ///< named scalars (phase times, counts)

  /// Count one design of a repetition; `fresh` marks the first repetition
  /// of its input set.
  void countDesign(bool fresh, bool failed, const std::string& reason) {
    ++designsRun;
    designsRunFailed += failed ? 1 : 0;
    if (!fresh) return;
    ++designsAttempted;
    if (!failed) return;
    ++designsFailed;
    ++failureReasons[reason];
  }

  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    for (auto& c : checks)
      if (c.name == name) {
        if (c.ok && !ok) {
          c.ok = false;
          c.detail = detail;
        }
        return;
      }
    checks.push_back({name, ok, ok ? std::string{} : detail});
  }
};

/// Set-up a process pays once, split by what it builds.
struct SetupTimes {
  double poolStartS = 0.0;
  double contextS = 0.0;
  double processS = 0.0;
  double libraryBuildS = 0.0;
  double total() const { return poolStartS + contextS + processS + libraryBuildS; }
};

/// A workload: input sets drawn from the seed, a set-up step, untraced
/// repetitions (the measured closed loop) and one traced repetition.
///
/// A run draws a fixed pool of inputSets() input sets from the seed and
/// cycles through it until the time is up: repetition p runs input set
/// inputSetOf(p, inputSets()).  The second repetition replays set 0, so even
/// the shortest run checks that results repeat bit for bit; every later
/// repeat of a set is checked against its first run too.  What a run
/// computes, and so which designs fail, depends on the seed only, not on how
/// many repetitions the host fits into the time.  Every design (one call;
/// for corner_hunt_sim one point's hunt + audit) starts from an empty eval
/// cache, so repeated inputs never turn into lookups and one design's
/// entries never slow the next.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t poolWidth() const = 0;
  /// Input sets in the run's pool; a run makes at least inputSets() + 1
  /// repetitions, so that it covers the whole pool.
  virtual std::size_t inputSets() const = 0;
  /// The knobs this workload pins, for the output record.
  virtual std::map<std::string, std::string> knobs() const = 0;
  /// Per-process memos users build once (timed into setup_s).
  virtual void setup(SetupTimes&) {}
  /// One untraced repetition.  The first repetition of each input set runs
  /// the output checks; later ones must reproduce it bit for bit.
  virtual void untracedPass(RunData& run, std::size_t pass) = 0;
  /// Input set 0 once more, traced from outside the program; its results
  /// must equal the untraced ones bit for bit.
  virtual void tracedPass(RunData& run) = 0;
  /// Input set 0 untraced at another pool width: the time of each call, or
  /// nothing when the workload has no parallel section to compare.
  virtual std::vector<double> widthReplay(RunData&, std::size_t) { return {}; }
};

/// Sets 0, 0, 1, ..., sets - 1, then 0, 1, ..., sets - 1 over again.
inline std::size_t inputSetOf(std::size_t pass, std::size_t sets) {
  return pass == 0 ? 0 : (pass - 1) % sets;
}
/// Whether repetition `pass` is the first of its input set.
inline bool firstOfSet(std::size_t pass, std::size_t sets) {
  return pass == 0 || (pass >= 2 && pass <= sets);
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed);

/// Deterministic input generator: splitmix64, so the inputs a seed gives do
/// not depend on the standard library's distribution implementations.
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::size_t set)
      : state_((seed * 0x9e3779b97f4a7c15ULL + 1) ^ (set * 0xd1b54a32d192ed03ULL)) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Latin-hypercube column: n values in [0,1), one per stratum, shuffled.
  std::vector<double> stratified(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = (static_cast<double>(i) + uniform()) / static_cast<double>(n);
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[next() % i]);
    return v;
  }

  /// Stratified sample of the unit cube: one uniform point in every cell of
  /// a grid with `cells[d]` divisions along dimension d.  Every seed covers
  /// every cell, so seeds differ only within cells and a run's cost mix
  /// barely moves between seeds.
  std::vector<std::vector<double>> grid(const std::vector<std::size_t>& cells) {
    std::vector<std::vector<double>> points(1);
    for (std::size_t n : cells) {
      std::vector<std::vector<double>> next;
      for (const auto& p : points)
        for (std::size_t i = 0; i < n; ++i) {
          auto q = p;
          q.push_back((static_cast<double>(i) + uniform()) / static_cast<double>(n));
          next.push_back(std::move(q));
        }
      points = std::move(next);
    }
    return points;
  }

 private:
  std::uint64_t state_;
};

inline bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double secondsSince(std::int64_t startNs);

/// Work counters from the program's metrics registry, by name.
std::map<std::string, std::uint64_t> counterSnapshot();
void addDelta(std::map<std::string, std::uint64_t>& into,
              const std::map<std::string, std::uint64_t>& before,
              const std::map<std::string, std::uint64_t>& after);

/// Run one public call: append its wall time to `seconds` and add the work
/// counters it moved to `counters`.  The counter snapshots sit outside the
/// timed interval.  A call that throws is timed up to the throw and yields
/// `onError(what)`, a result the workload counts as a failed design.
template <class F, class E>
auto meteredCall(std::vector<double>& seconds, std::map<std::string, std::uint64_t>& counters,
                 F&& call, E&& onError) {
  const auto before = counterSnapshot();
  const auto t0 = nowNs();
  decltype(call()) result;
  try {
    result = call();
  } catch (const std::exception& e) {
    result = onError(std::string("exception: ") + e.what());
  }
  seconds.push_back(secondsSince(t0));
  addDelta(counters, before, counterSnapshot());
  return result;
}

}  // namespace perfbench
