// Synthesis ledger binary: runs one workload for a fixed time through the
// public API, checks its outputs, and writes the raw measurements (call
// times, traced spans, work counters, checks) as one JSON document that
// perfbench/run.py reduces to metrics.
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
//   ledger --workload <name> --setup-only --out <file>
//
// Knobs are pinned, not left to AMSYN_*: the pool width through a scoped
// pool, the flow knobs through FlowOptions, and everything else at the
// built-in defaults of the ambient execution context.  The run fails when
// the environment moved any of those defaults (perfbench/run.py strips
// AMSYN_* before it starts this binary).  The ambient context is what a
// plain caller of the public API runs under; an explicit context would add
// its metrics slice to every counter update.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/parallel.hpp"
#include "ledger.hpp"

namespace {

using namespace perfbench;
namespace core = amsyn::core;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setupOnly = false;
  std::string out;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setupOnly = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--out") a.out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && !a.out.empty() && a.seconds > 0;
}

/// The ambient context's knobs, and whether each is at its built-in default.
std::map<std::string, std::string> ambientKnobs(RunData& run) {
  const core::ContextConfig& c = core::ExecutionContext::ambient().config();
  const core::ContextConfig d;
  const bool defaults = c.threads == d.threads && c.solver == d.solver &&
                        c.evalCacheEnabled == d.evalCacheEnabled &&
                        c.evalCacheCapacity == d.evalCacheCapacity &&
                        c.evalCacheQuantum == d.evalCacheQuantum &&
                        c.surrogateMode == d.surrogateMode &&
                        c.jobDeadlineMs == d.jobDeadlineMs &&
                        c.topologySpace == d.topologySpace;
  run.check("ambient_knobs_at_defaults", defaults,
            "an AMSYN_* environment variable moved a knob off its default");
  return {{"ambient.eval_cache", c.evalCacheEnabled ? "on" : "off"},
          {"ambient.eval_cache_capacity", std::to_string(c.evalCacheCapacity)},
          {"ambient.eval_cache_quantum", std::to_string(c.evalCacheQuantum)},
          {"ambient.surrogate", c.surrogateMode == d.surrogateMode ? "off" : "on"},
          {"ambient.solver", c.solver == core::SolverKind::Auto ? "auto" : "forced"},
          {"ambient.job_deadline_ms", std::to_string(c.jobDeadlineMs)}};
}

double peakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  return std::nan("");
}

/// Host calibration: a pure-CPU loop at one thread, then the same loop on
/// `width` threads at once.  Ceiling = width * t1 / tWidth, the speedup an
/// ideally parallel workload could reach on the host.
double cpuLoop(std::uint64_t iters) {
  double acc = 1.0;
  std::uint64_t z = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    acc = acc * 0.999999 + static_cast<double>(z & 0xff) * 1e-9;
  }
  return acc;
}

void calibrateHost(std::size_t width, RunData& run) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::vector<double> ratios;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = nowNs();
    sink = sink + cpuLoop(kIters);
    const double t1 = secondsSince(t0);
    std::vector<double> partial(width);
    t0 = nowNs();
    {
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < width; ++k)
        threads.emplace_back([&partial, k] { partial[k] = cpuLoop(kIters); });
      for (auto& t : threads) t.join();
    }
    const double tw = secondsSince(t0);
    for (double p : partial) sink = sink + p;
    ratios.push_back(static_cast<double>(width) * t1 / tw);
  }
  std::sort(ratios.begin(), ratios.end());
  run.values["host.parallel_ceiling_x"] = ratios[1];  // median of three
}

// --- raw JSON output -------------------------------------------------------

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\', o += c;
    else if (static_cast<unsigned char>(c) < 0x20) o += ' ';
    else o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string numArray(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? "," : "") + num(v[i]);
  return o + "]";
}

template <class Map, class F>
std::string object(const Map& m, F value) {
  std::string o = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o += (first ? "" : ",") + quote(k) + ":" + value(v);
    first = false;
  }
  return o + "}";
}

std::string setupJson(const SetupTimes& st) {
  return "{\"total_s\":" + num(st.total()) + ",\"pool_start_s\":" + num(st.poolStartS) +
         ",\"context_s\":" + num(st.contextS) + ",\"process_s\":" + num(st.processS) +
         ",\"library_build_s\":" + num(st.libraryBuildS) + "}";
}

void writeRun(std::ostream& out, const Args& a, const Workload& w,
              std::map<std::string, std::string> knobs, const SetupTimes& st,
              const RunData& run) {
  knobs.merge(w.knobs());
  const auto counts = [](std::size_t v) { return std::to_string(v); };
  out << "{\"workload\":" << quote(a.workload) << ",\"seed\":" << a.seed
      << ",\"seconds\":" << num(a.seconds) << ",\"trace\":" << (a.trace ? 1 : 0)
      << ",\"pool_threads\":" << w.poolWidth()
      << ",\"knobs\":" << object(knobs, quote) << ",\"setup\":" << setupJson(st)
      << ",\"input_sets\":" << w.inputSets() << ",\"passes\":" << run.passes
      << ",\"call_s\":" << numArray(run.callSeconds)
      << ",\"designs_attempted\":" << run.designsAttempted
      << ",\"designs_failed\":" << run.designsFailed
      << ",\"designs_run\":" << run.designsRun
      << ",\"designs_run_failed\":" << run.designsRunFailed
      << ",\"failure_reasons\":" << object(run.failureReasons, counts)
      << ",\"power_w\":" << numArray(run.powerW)
      << ",\"area_lambda2\":" << numArray(run.areaLambda2)
      << ",\"peak_rss_kb\":" << num(peakRssKb()) << ",\"pass_counters\":[";
  for (std::size_t i = 0; i < run.passCounters.size(); ++i)
    out << (i ? "," : "") << object(run.passCounters[i], counts);
  out << "],\"values\":" << object(run.values, num) << ",\"checks\":[";
  for (std::size_t i = 0; i < run.checks.size(); ++i) {
    const auto& c = run.checks[i];
    out << (i ? "," : "") << "{\"name\":" << quote(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false") << ",\"detail\":" << quote(c.detail) << "}";
  }
  out << "]";
  if (a.trace) {
    out << ",\"traced_call_s\":" << numArray(run.tracedCallSeconds)
        << ",\"untraced_set0_s\":" << numArray(run.untracedSetZeroSeconds)
        << ",\"call_counters\":" << object(run.callCounters, counts)
        << ",\"replay_counters\":" << object(run.replayCounters, counts)
        << ",\"spans\":[";
    const auto& spans = run.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << (i ? "," : "") << "[" << quote(s.name) << "," << s.startNs << "," << s.endNs
          << "," << s.parent << "," << s.job << "]";
    }
    out << "]";
  }
  out << "}\n";
}

/// Untraced time of each call of input set 0: the mean of its two
/// repetitions (the first and the replaying second).
std::vector<double> setZeroSeconds(const std::vector<double>& calls, std::size_t passes) {
  const std::size_t perPass = calls.size() / passes;
  std::vector<double> out(perPass);
  for (std::size_t i = 0; i < perPass; ++i) out[i] = 0.5 * (calls[i] + calls[perPass + i]);
  return out;
}

/// The pool layer: input set 0 at width 1 against width kParallelWidth,
/// one side from the untraced repetitions, the other replayed.
constexpr std::size_t kParallelWidth = 4;

void poolReplay(Workload& w, RunData& run) {
  const bool serialRun = w.poolWidth() == 1;
  const auto other = w.widthReplay(run, serialRun ? kParallelWidth : 1);
  if (other.empty()) return;
  const auto& serial = serialRun ? run.untracedSetZeroSeconds : other;
  const auto& parallel = serialRun ? other : run.untracedSetZeroSeconds;
  double serialSum = 0.0, parallelSum = 0.0, slowest = 0.0;
  for (double s : serial) serialSum += s, slowest = std::max(slowest, s);
  for (double p : parallel) parallelSum += p;
  run.values["pool.serial_s"] = serialSum;
  run.values["pool.parallel_s"] = parallelSum;
  run.values["pool.slowest_serial_call_s"] = slowest;
  run.values["pool.serial_calls"] = static_cast<double>(serial.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--out <file> [--setup-only]\n";
    return 2;
  }
  auto workload = makeWorkload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  // Set-up: everything a process pays once before its first call.
  SetupTimes setup;
  auto t0 = nowNs();
  core::ScopedThreadPool pool(workload->poolWidth());
  setup.poolStartS = secondsSince(t0);
  RunData run;
  t0 = nowNs();
  const auto knobs = ambientKnobs(run);
  setup.contextS = secondsSince(t0);
  t0 = nowNs();
  (void)amsyn::circuit::defaultProcess();
  setup.processS = secondsSince(t0);
  workload->setup(setup);

  if (!args.setupOnly) {
    // Public calls that throw are failed designs (meteredCall); anything
    // else that throws here is a check that could not run.
    try {
      // The measured closed loop: whole repetitions until the time is up
      // and the input pool is covered.
      const auto start = nowNs();
      do {
        run.passCounters.emplace_back();
        workload->untracedPass(run, run.passes);
        ++run.passes;
      } while (run.passes <= workload->inputSets() || secondsSince(start) < args.seconds);

      if (args.trace) {
        run.untracedSetZeroSeconds = setZeroSeconds(run.callSeconds, run.passes);
        workload->tracedPass(run);
        poolReplay(*workload, run);
        calibrateHost(kParallelWidth, run);
      }
    } catch (const std::exception& e) {
      run.check("checks_ran_to_completion", false, e.what());
    }
  }

  std::ofstream out(args.out);
  if (args.setupOnly)
    out << "{\"setup\":" << setupJson(setup) << "}\n";
  else
    writeRun(out, args, *workload, knobs, setup, run);
  out.close();
  if (!out) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}
