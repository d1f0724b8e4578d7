// Scoped execution contexts: the explicit object behind every piece of
// state that PRs 3–9 left process-global (metrics attribution, the
// eval-cache handle, solver-mode preference, batch fault plans, env tuning
// knobs).  One process serving many synthesis jobs — the ROADMAP's
// synthesis-as-a-service daemon — needs those separated per tenant/job;
// a single-flow CLI run should not have to know contexts exist.  Both are
// served by the same mechanism:
//
//   * The *ambient* context is a lazily-created, process-lifetime default
//     whose config snapshot comes from the AMSYN_* environment and whose
//     cache handle is the legacy shared singleton.  Code that
//     never installs a context resolves everything through it, which makes
//     every pre-context entry point behave exactly as before.
//   * An *explicit* context carries its own config, solver preference,
//     fault schedule, and metrics slice; optionally its own (isolated)
//     eval cache.  Installing it with ContextScope
//     makes ExecutionContext::current() — and therefore every subsystem
//     that resolves through it — see that context on the installing
//     thread.  parallelFor propagates the submitting thread's context into
//     pool tasks, so a context follows its job across work-stealing.
//
// What stays process-shared on purpose: the metrics registry storage
// (slices are additive observers, never the source of truth — process
// totals stay thread-count-invariant and bit-identical with or without
// slicing), the sparse-solver symbolic cache (pure speed, keyed by
// structure), and — by default — the eval cache, whose cross-job
// amortization is its whole point.  What is per-context: the
// config snapshot, solver-mode preference, batch fault schedule, metrics
// slice, and any handle the owner asked to isolate.
//
// Layering: amsyn_context sits directly above amsyn_metrics /
// amsyn_evalcache and below everything else (parallel,
// sim, sizing, topology, manufacture, core).  It must not depend on the
// thread pool, which is why propagation lives in parallel.hpp, not here.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/evalcache.hpp"
#include "core/metrics.hpp"

namespace amsyn::core {

/// Linear-solver preference, mirrored by sim::SolverMode (the sim layer
/// maps between the two; this enum exists so amsyn_context stays below
/// amsyn_sim).
enum class SolverKind : std::uint8_t { Auto, Dense, Sparse };

/// Topology-space selection, mirrored by topology::TopologySpace's
/// Legacy/Generated alternatives (same layering reason as SolverKind).
enum class TopologySpaceKind : std::uint8_t { Legacy, Generated };

/// Type of ContextConfig::surrogateMode and FlowOptions::surrogate.  amsyn
/// has no learned surrogate: both fields remain only because the benchmark
/// harness in perfbench/ still names them, and nothing reads either.
enum class SurrogateOption : std::uint8_t { Off };

/// One immutable snapshot of every AMSYN_* tuning knob.  fromEnv() is the
/// only production reader of those variables (via core/envknobs.hpp);
/// everything downstream consumes the snapshot through its context, so a
/// daemon can hand different configs to different jobs without touching
/// the environment.
struct ContextConfig {
  /// AMSYN_THREADS (0 = use hardware concurrency).
  std::size_t threads = 0;
  /// AMSYN_SOLVER.
  SolverKind solver = SolverKind::Auto;
  /// AMSYN_EVAL_CACHE / _CAPACITY / _QUANTUM.
  bool evalCacheEnabled = true;
  std::size_t evalCacheCapacity = std::size_t{1} << 16;
  double evalCacheQuantum = 0.0;
  /// Unread; kept only because perfbench/ compares it.
  SurrogateOption surrogateMode = SurrogateOption::Off;
  /// AMSYN_JOB_DEADLINE_MS (0 = no deadline).
  std::uint64_t jobDeadlineMs = 0;
  /// AMSYN_TOPOLOGY_SPACE.
  TopologySpaceKind topologySpace = TopologySpaceKind::Legacy;

  static ContextConfig fromEnv();
};

/// Which handles an explicit context owns privately instead of sharing
/// with the process (see the file comment for why sharing is the default).
struct ContextIsolation {
  bool evalCache = false;
};

/// Per-context batch fault schedule — the scoped replacement for the old
/// process-global armed plan in sim/fault.cpp.  Sized independently of
/// sim::kFaultSiteCount (static_assert'd there) so this header stays below
/// the sim layer.
struct FaultScheduleState {
  static constexpr std::size_t kMaxSites = 16;
  std::atomic<bool> armed{false};
  std::uint64_t seed = 1;
  std::array<double, kMaxSites> rates{};
};

class ExecutionContext {
 public:
  /// An explicit context.  Root contexts are independent of each other and
  /// of the ambient context: their fault schedules never chain anywhere and
  /// their metric slices have no parent.
  explicit ExecutionContext(ContextConfig cfg = ContextConfig::fromEnv(),
                            ContextIsolation isolation = {});
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The process-default context: config snapshotted from the environment
  /// on first use, the shared cache handle, no metrics slice (so
  /// un-scoped code pays one thread-local null check and nothing else).
  /// Created lazily and leaked, like the registry.
  static ExecutionContext& ambient();

  /// The calling thread's installed context (innermost ContextScope), or
  /// ambient() when none is installed.
  static ExecutionContext& current();

  /// The installed context without the ambient fallback (nullptr = none).
  static ExecutionContext* scoped();

  /// A child for one job within this context: same config and handles,
  /// solver preference copied from the parent's current value, its own
  /// fault schedule (falling back to the parent chain until armed locally),
  /// and a metrics slice chained under the parent's — a delta recorded in
  /// the job also shows up in the owning tenant's slice.  The child must
  /// not outlive its parent.
  std::unique_ptr<ExecutionContext> makeChild();

  const ContextConfig& config() const { return config_; }

  /// Context-resolved cache handle: the shared process singleton unless
  /// this context was built with isolation.
  cache::EvalCache& evalCache() { return *evalCache_; }
  bool hasIsolatedEvalCache() const { return ownedEvalCache_ != nullptr; }

  /// Per-context solver preference (initialized from config; mutable so
  /// FlowOptions::solver can override per run without leaking into other
  /// contexts).
  SolverKind solverKind() const { return solver_.load(std::memory_order_relaxed); }
  void setSolverKind(SolverKind k) { solver_.store(k, std::memory_order_relaxed); }

  /// This context's own fault schedule (written by sim::armBatchFaults).
  FaultScheduleState& faultSchedule() { return faultSchedule_; }
  /// The armed schedule governing this context: its own if armed, else the
  /// nearest armed ancestor's, else nullptr.  Sibling contexts therefore
  /// never see each other's plans.
  const FaultScheduleState* armedFaultSchedule() const;

  /// This context's metric slice (nullptr for the ambient context).
  metrics::ContextSlice* metricsSlice() { return slice_.get(); }
  /// Name -> delta for counters recorded under this context (empty map for
  /// the ambient context, which deliberately records no slice).
  std::map<std::string, std::uint64_t> sliceCounters() const;

 private:
  ExecutionContext(ContextConfig cfg, ContextIsolation isolation,
                   ExecutionContext* parent, bool isAmbient);

  ContextConfig config_;
  ExecutionContext* parent_ = nullptr;
  std::unique_ptr<cache::EvalCache> ownedEvalCache_;
  cache::EvalCache* evalCache_ = nullptr;
  std::atomic<SolverKind> solver_{SolverKind::Auto};
  FaultScheduleState faultSchedule_;
  std::unique_ptr<metrics::ContextSlice> slice_;
};

/// Installs a context as the calling thread's current one (and its metrics
/// slice as the thread's active slice) for the scope's lifetime.  Nesting
/// restores the previous context on exit; the innermost scope wins.
class ContextScope {
 public:
  explicit ContextScope(ExecutionContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ExecutionContext* prev_;
  metrics::SliceScope sliceScope_;
};

/// Shorthand for the hot call sites (sizing::safeEvaluate, cache-key
/// builders).
inline cache::EvalCache& currentEvalCache() {
  return ExecutionContext::current().evalCache();
}

}  // namespace amsyn::core
