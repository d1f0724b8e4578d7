// Tests for scoped execution contexts (core/context.hpp): config snapshot
// semantics, scope installation, per-context metrics slices, fault-plan
// isolation, isolated cache handles — and the PR's headline
// proof, a differential suite showing the whole flow and the robust corner
// search are *bit-identical* between the legacy ambient-global path and an
// explicitly installed context, at 1 and 8 threads, cache on and off.
// Contexts may only ever change *attribution and isolation*, never results.
//
// The registry-overflow tests are deliberately LAST in this file: they fill
// the metrics registry to capacity for their process.  Under ctest every
// TEST runs in its own process (gtest_discover_tests), so they cannot
// poison siblings there; keeping them last protects direct-binary runs too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "sim/fault.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace metrics = amsyn::core::metrics;
namespace sim = amsyn::sim;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// RAII save/restore of one environment variable (fromEnv tests mutate the
/// environment; nothing else in the process reads it at runtime anymore,
/// which is itself part of what this file verifies).
struct EnvVarGuard {
  explicit EnvVarGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvVarGuard() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::optional<std::string> saved_;
};

/// RAII snapshot/restore of the shared cache's knobs (same discipline as
/// tests/evalcache_test.cpp: the shared cache is process-wide state).
struct CacheGuard {
  CacheGuard()
      : c(cache::EvalCache::instance()),
        enabled(c.enabled()),
        capacity(c.capacity()),
        quantum(c.quantum()) {
    c.setEnabled(true);
    c.setQuantum(0.0);
    c.clear();
  }
  ~CacheGuard() {
    c.setEnabled(enabled);
    c.setCapacity(capacity);
    c.setQuantum(quantum);
    c.clear();
  }
  cache::EvalCache& c;
  bool enabled;
  std::size_t capacity;
  double quantum;
};

/// Minimal cacheable model counting real evaluations, so a context-resolved
/// cache hit (count unchanged) is distinguishable from a miss.
class CountingModel : public sz::PerformanceModel {
 public:
  explicit CountingModel(double base = 1.0) : base_(base) {}

  const std::vector<sz::DesignVariable>& variables() const override { return vars_; }

  sz::Performance evaluate(const std::vector<double>& x) const override {
    ++evals_;
    return {{"gain_db", base_ + x.at(0)}, {"power", base_ * x.at(0)}};
  }

  std::optional<cache::Digest128> cacheKey(const std::vector<double>& x) const override {
    cache::Hasher128 h;
    h.mixString("context-counting-model");
    h.mixDouble(base_);
    // Context-resolved quantum: the key builder must follow the installed
    // context's cache, not the shared singleton.
    h.mixQuantizedDoubles(x, core::currentEvalCache().quantum());
    return h.digest();
  }

  int evals() const { return evals_.load(); }

 private:
  double base_;
  mutable std::atomic<int> evals_{0};
  std::vector<sz::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
};

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult perfBitIdentical(const sz::Performance& a,
                                            const sz::Performance& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first)
      return ::testing::AssertionFailure()
             << "keys differ: " << ia->first << " vs " << ib->first;
    if (rawBits(ia->second) != rawBits(ib->second))
      return ::testing::AssertionFailure()
             << ia->first << " differs in bits: " << ia->second << " vs " << ib->second;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult vecBitIdentical(const std::vector<double>& a,
                                           const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rawBits(a[i]) != rawBits(b[i]))
      return ::testing::AssertionFailure()
             << "x[" << i << "] differs in bits: " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

cache::Digest128 keyOf(std::uint64_t tag) {
  cache::Hasher128 h;
  h.mixString("context-test").mix(tag);
  return h.digest();
}

/// A deterministic config for explicit contexts in the differential and
/// isolation tests: independent of whatever AMSYN_* the CI leg set, so the
/// tests assert the same thing in every leg.
core::ContextConfig deterministicConfig() {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.evalCacheEnabled = true;
  cfg.evalCacheQuantum = 0.0;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// ContextConfig::fromEnv — the one sanctioned environment snapshot

TEST(ContextConfig, FromEnvSnapshotsEveryKnob) {
  EnvVarGuard g1("AMSYN_THREADS"), g2("AMSYN_SOLVER"), g3("AMSYN_EVAL_CACHE"),
      g4("AMSYN_EVAL_CACHE_CAPACITY"), g5("AMSYN_EVAL_CACHE_QUANTUM"),
      g6("AMSYN_JOB_DEADLINE_MS"), g7("AMSYN_TOPOLOGY_SPACE");
  ::setenv("AMSYN_THREADS", "5", 1);
  ::setenv("AMSYN_SOLVER", "Sparse", 1);  // parser is case-insensitive
  ::setenv("AMSYN_EVAL_CACHE", "off", 1);
  ::setenv("AMSYN_EVAL_CACHE_CAPACITY", "1024", 1);
  ::setenv("AMSYN_EVAL_CACHE_QUANTUM", "0.25", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900", 1);
  ::setenv("AMSYN_TOPOLOGY_SPACE", "generated", 1);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 5u);
  EXPECT_EQ(cfg.solver, core::SolverKind::Sparse);
  EXPECT_FALSE(cfg.evalCacheEnabled);
  EXPECT_EQ(cfg.evalCacheCapacity, 1024u);
  EXPECT_DOUBLE_EQ(cfg.evalCacheQuantum, 0.25);
  EXPECT_EQ(cfg.jobDeadlineMs, 900u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpaceKind::Generated);
}

TEST(ContextConfig, FromEnvDefaultsWhenUnset) {
  EnvVarGuard g1("AMSYN_THREADS"), g2("AMSYN_SOLVER"), g3("AMSYN_EVAL_CACHE"),
      g4("AMSYN_EVAL_CACHE_CAPACITY"), g5("AMSYN_EVAL_CACHE_QUANTUM"),
      g6("AMSYN_JOB_DEADLINE_MS"), g7("AMSYN_TOPOLOGY_SPACE");
  for (const char* name :
       {"AMSYN_THREADS", "AMSYN_SOLVER", "AMSYN_EVAL_CACHE",
        "AMSYN_EVAL_CACHE_CAPACITY", "AMSYN_EVAL_CACHE_QUANTUM",
        "AMSYN_JOB_DEADLINE_MS", "AMSYN_TOPOLOGY_SPACE"})
    ::unsetenv(name);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.solver, core::SolverKind::Auto);
  EXPECT_TRUE(cfg.evalCacheEnabled);
  EXPECT_EQ(cfg.evalCacheCapacity, std::size_t{1} << 16);
  EXPECT_DOUBLE_EQ(cfg.evalCacheQuantum, 0.0);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpaceKind::Legacy);
}

TEST(ContextConfig, UnparseableValuesFallBackToDefaults) {
  EnvVarGuard g1("AMSYN_THREADS"), g2("AMSYN_SOLVER"), g7("AMSYN_JOB_DEADLINE_MS");
  ::setenv("AMSYN_THREADS", "junk", 1);
  ::setenv("AMSYN_SOLVER", "quantum", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900ms", 1);  // trailing garbage = unset
  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.solver, core::SolverKind::Auto);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);
}

// ---------------------------------------------------------------------------
// Ambient context and scope mechanics

TEST(ExecutionContext, AmbientIsCurrentWithoutAScopeAndRecordsNoSlice) {
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
  // The ambient context deliberately has no metrics slice (un-scoped code
  // pays one thread-local null check and nothing else).
  EXPECT_EQ(core::ExecutionContext::ambient().metricsSlice(), nullptr);
  EXPECT_TRUE(core::ExecutionContext::ambient().sliceCounters().empty());
  // Shared handles resolve to the legacy singletons.
  EXPECT_EQ(&core::ExecutionContext::ambient().evalCache(),
            &cache::EvalCache::instance());
  EXPECT_FALSE(core::ExecutionContext::ambient().hasIsolatedEvalCache());
}

TEST(ExecutionContext, ScopeInstallsNestsAndRestores) {
  core::ExecutionContext a(deterministicConfig());
  core::ExecutionContext b(deterministicConfig());
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  {
    core::ContextScope sa(a);
    EXPECT_EQ(core::ExecutionContext::scoped(), &a);
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
    {
      core::ContextScope sb(b);
      EXPECT_EQ(&core::ExecutionContext::current(), &b);
    }
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
  }
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
}

TEST(ExecutionContext, ChildInheritsConfigHandlesAndCurrentSolverPreference) {
  core::ContextConfig cfg = deterministicConfig();
  cfg.jobDeadlineMs = 4321;
  core::ExecutionContext parent(cfg);
  // The child copies the parent's *current* preference, not its config
  // default — FlowOptions::solver applied on the parent must carry into
  // jobs created afterwards.
  parent.setSolverKind(core::SolverKind::Sparse);
  const auto child = parent.makeChild();
  EXPECT_EQ(child->config().jobDeadlineMs, 4321u);
  EXPECT_EQ(&child->evalCache(), &parent.evalCache());
  EXPECT_FALSE(child->hasIsolatedEvalCache());
  EXPECT_EQ(child->solverKind(), core::SolverKind::Sparse);
  // The child's slice chains under the parent's.
  ASSERT_NE(child->metricsSlice(), nullptr);
  EXPECT_EQ(child->metricsSlice()->parent(), parent.metricsSlice());
}

// ---------------------------------------------------------------------------
// Per-context metrics slices (satellite: disjoint slices, invariant totals)

TEST(ContextMetrics, SlicesAreDisjointAndSumToProcessTotals) {
  const metrics::CounterId work = metrics::registry().counter("ctx.test.work");
  const std::uint64_t before = metrics::registry().total(work);

  core::ExecutionContext tenantA(deterministicConfig());
  core::ExecutionContext tenantB(deterministicConfig());
  core::ScopedThreadPool pool(4);  // both tenants share one pool
  {
    core::ContextScope scope(tenantA);
    core::parallelFor(37, [&](std::size_t) { metrics::add(work); });
  }
  {
    core::ContextScope scope(tenantB);
    core::parallelFor(21, [&](std::size_t) { metrics::add(work); });
  }

  const auto slicesA = tenantA.sliceCounters();
  const auto slicesB = tenantB.sliceCounters();
  ASSERT_EQ(slicesA.count("ctx.test.work"), 1u);
  ASSERT_EQ(slicesB.count("ctx.test.work"), 1u);
  EXPECT_EQ(slicesA.at("ctx.test.work"), 37u);
  EXPECT_EQ(slicesB.at("ctx.test.work"), 21u);
  // Slices are additive observers: the process total is exactly the sum of
  // the two tenants' disjoint slices on top of whatever ran before.
  EXPECT_EQ(metrics::registry().total(work) - before, 58u);
  // And the ambient context still records no slice of its own.
  EXPECT_TRUE(core::ExecutionContext::ambient().sliceCounters().empty());
}

TEST(ContextMetrics, ChildDeltasChainIntoTheParentSlice) {
  const metrics::CounterId work = metrics::registry().counter("ctx.test.child");
  core::ExecutionContext tenant(deterministicConfig());
  const auto job = tenant.makeChild();
  {
    core::ContextScope scope(*job);
    metrics::add(work, 5);
  }
  EXPECT_EQ(job->sliceCounters().at("ctx.test.child"), 5u);
  // The tenant sees its job's delta too (chained slice), without the job
  // having to report anything explicitly.
  EXPECT_EQ(tenant.sliceCounters().at("ctx.test.child"), 5u);
}

TEST(ContextMetrics, ReportOverloadEmitsSliceValuesAndIsInertForAmbient) {
  core::FlowResult r;
  r.topology = "two_stage_miller";
  // Ambient context: the two-argument overload is byte-identical to the
  // single-argument form (no slice to emit).
  EXPECT_EQ(core::flowRunReportJson(r),
            core::flowRunReportJson(r, core::ExecutionContext::ambient()));

  const metrics::CounterId work = metrics::registry().counter("ctx.test.report");
  core::ExecutionContext ctx(deterministicConfig());
  {
    core::ContextScope scope(ctx);
    metrics::add(work, 3);
  }
  const std::string json = core::flowRunReportJson(r, ctx);
  EXPECT_NE(json.find("\"ctx.ctx.test.report\""), std::string::npos);
  // The slice is sparse: counters the context never touched are absent.
  EXPECT_EQ(json.find("\"ctx.core.jobs.submitted\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault-plan isolation (satellite: per-context chaos plans never leak)

TEST(ContextFaults, SiblingContextsNeverSeeEachOthersPlans) {
  core::ExecutionContext tenantA(deterministicConfig());
  core::ExecutionContext tenantB(deterministicConfig());
  sim::BatchFaultPlan plan;
  plan.seed = 7;
  plan.rate(sim::FaultSite::JobTask) = 1.0;
  {
    core::ContextScope scopeA(tenantA);
    sim::ScopedBatchFaults armed(plan);  // arms tenantA's schedule
    EXPECT_TRUE(sim::batchFaultsArmed());
    {
      sim::BatchFaultScope job(0);
      EXPECT_TRUE(sim::takeBatchFault(sim::FaultSite::JobTask));
    }
    {
      // Sibling tenant on the same thread: the plan must be invisible.
      core::ContextScope scopeB(tenantB);
      EXPECT_FALSE(sim::batchFaultsArmed());
      sim::BatchFaultScope job(0);
      EXPECT_FALSE(sim::takeBatchFault(sim::FaultSite::JobTask));
    }
    {
      // A child of the armed tenant inherits the plan through the chain.
      const auto job = tenantA.makeChild();
      core::ContextScope scopeChild(*job);
      EXPECT_TRUE(sim::batchFaultsArmed());
      sim::BatchFaultScope faultScope(1);
      EXPECT_TRUE(sim::takeBatchFault(sim::FaultSite::JobTask));
    }
  }
  // Disarm happened on tenantA; the ambient context was never armed.
  EXPECT_FALSE(sim::batchFaultsArmed());
}

// ---------------------------------------------------------------------------
// Isolated handles (satellite: isolated caches never observe shared state)

TEST(ContextIsolation, IsolatedEvalCacheNeverObservesSharedEntries) {
  CacheGuard guard;
  core::ExecutionContext ctx(deterministicConfig(),
                             core::ContextIsolation{.evalCache = true});
  ASSERT_TRUE(ctx.hasIsolatedEvalCache());
  ASSERT_NE(&ctx.evalCache(), &cache::EvalCache::instance());

  const std::vector<double> x{2.0};
  cache::CachedEval payload{{{"gain_db", 9.0}}, core::EvalStatus::Ok};
  cache::CachedEval out;

  // Shared insert is invisible to the isolated cache...
  cache::EvalCache::instance().insert(keyOf(1), x, payload);
  EXPECT_FALSE(ctx.evalCache().lookup(keyOf(1), x, out));
  // ...and an isolated insert is invisible to the shared cache.
  ctx.evalCache().insert(keyOf(2), x, payload);
  EXPECT_FALSE(cache::EvalCache::instance().lookup(keyOf(2), x, out));
  EXPECT_TRUE(ctx.evalCache().lookup(keyOf(2), x, out));
  EXPECT_TRUE(perfBitIdentical(out.performance, payload.performance));
}

TEST(ContextIsolation, SafeEvaluateCachesThroughTheInstalledContext) {
  CacheGuard guard;
  core::ExecutionContext ctx(deterministicConfig(),
                             core::ContextIsolation{.evalCache = true});
  CountingModel model(2.0);
  const std::vector<double> x{3.0};
  const std::size_t sharedEntriesBefore = cache::EvalCache::instance().stats().entries;
  {
    core::ContextScope scope(ctx);
    const auto first = sz::safeEvaluate(model, x);
    const auto second = sz::safeEvaluate(model, x);
    EXPECT_EQ(model.evals(), 1);  // second call hit the isolated cache
    EXPECT_TRUE(perfBitIdentical(first, second));
  }
  // Nothing leaked into the shared cache.
  EXPECT_EQ(cache::EvalCache::instance().stats().entries, sharedEntriesBefore);
  EXPECT_EQ(ctx.evalCache().stats().entries, 1u);
  // Outside the scope the same model evaluates against the shared cache, so
  // the isolated entry is not visible: a real evaluation runs again.
  (void)sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 2);
}

// ---------------------------------------------------------------------------
// Differential suite: ambient-global vs explicit-context runs, bit for bit

namespace {

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 2;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

/// One full flow run.  `ctx` == nullptr runs the legacy ambient-global
/// path (synthesizeAmplifier, no scope anywhere); otherwise the run goes
/// through the explicit-context engine entry point FlowEngine::run(...,
/// ctx) — the daemon-style path this PR introduced.
core::FlowResult runFlow(bool cacheOn, std::size_t threads,
                         core::ExecutionContext* ctx) {
  auto& c = cache::EvalCache::instance();
  c.clear();
  c.setEnabled(cacheOn);
  core::ScopedThreadPool scoped(threads);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0)
      .atLeast("ugf", 1e7)
      .atLeast("pm", 60.0)
      .atMost("power", 4e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 3;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  if (!ctx) return core::synthesizeAmplifier(specs, nominal(), opts);
  core::FlowEngine engine(core::amplifierStageGraph());
  return engine.run(specs, nominal(), opts, *ctx);
}

/// The run-report prefix that is a pure function of the FlowResult (same
/// masking as tests/evalcache_test.cpp: counters/spans and the wall-clock
/// `stage.N.seconds` digits legitimately differ between runs).
std::string reportResultPrefix(const core::FlowResult& r) {
  std::string json = core::flowRunReportJson(r);
  const auto pos = json.find("\"counters\"");
  if (pos != std::string::npos) json = json.substr(0, pos);
  std::string masked;
  std::size_t at = 0;
  while (true) {
    const auto hit = json.find(".seconds\": ", at);
    if (hit == std::string::npos) break;
    const auto valueStart = hit + std::strlen(".seconds\": ");
    auto valueEnd = valueStart;
    while (valueEnd < json.size() && json[valueEnd] != ',' && json[valueEnd] != '\n')
      ++valueEnd;
    masked += json.substr(at, valueStart - at);
    masked += '#';
    at = valueEnd;
  }
  masked += json.substr(at);
  return masked;
}

void expectFlowsBitIdentical(const core::FlowResult& a, const core::FlowResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_TRUE(vecBitIdentical(a.designPoint, b.designPoint));
  EXPECT_EQ(a.redesigns, b.redesigns);
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.failureStatus, b.failureStatus);
  ASSERT_EQ(a.verifications.size(), b.verifications.size());
  for (std::size_t i = 0; i < a.verifications.size(); ++i) {
    EXPECT_EQ(a.verifications[i].stage, b.verifications[i].stage);
    EXPECT_EQ(a.verifications[i].passed, b.verifications[i].passed);
    EXPECT_TRUE(
        perfBitIdentical(a.verifications[i].measured, b.verifications[i].measured));
  }
  ASSERT_EQ(a.stageRecords.size(), b.stageRecords.size());
  for (std::size_t i = 0; i < a.stageRecords.size(); ++i) {
    EXPECT_EQ(a.stageRecords[i].name, b.stageRecords[i].name);
    EXPECT_EQ(a.stageRecords[i].attempt, b.stageRecords[i].attempt);
    EXPECT_EQ(a.stageRecords[i].status, b.stageRecords[i].status);
    EXPECT_EQ(a.stageRecords[i].detail, b.stageRecords[i].detail);
    EXPECT_EQ(a.stageRecords[i].evalStatus, b.stageRecords[i].evalStatus);
  }
  EXPECT_EQ(reportResultPrefix(a), reportResultPrefix(b));
}

mf::RobustResult runRobust(bool cacheOn, std::size_t threads,
                           core::ExecutionContext* ctx) {
  auto& c = cache::EvalCache::instance();
  c.clear();
  c.setEnabled(cacheOn);
  core::ScopedThreadPool scoped(threads);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 55.0).atLeast("ugf", 1e6).minimize("power", 0.5, 1e-3);
  mf::RobustOptions ropts;
  ropts.synthesis = fastSynthesisOptions();
  ropts.maxRounds = 1;
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), 5e-12);
  };
  if (!ctx)
    return mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, ropts);
  core::ContextScope scope(*ctx);
  return mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, ropts);
}

void expectRobustBitIdentical(const mf::RobustResult& a, const mf::RobustResult& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(vecBitIdentical(a.nominal.x, b.nominal.x));
  EXPECT_TRUE(perfBitIdentical(a.nominal.performance, b.nominal.performance));
  EXPECT_EQ(a.nominal.feasible, b.nominal.feasible);
  EXPECT_TRUE(vecBitIdentical(a.robust.x, b.robust.x));
  EXPECT_TRUE(perfBitIdentical(a.robust.performance, b.robust.performance));
  EXPECT_EQ(a.robust.feasible, b.robust.feasible);
  EXPECT_EQ(a.robustFeasibleAtCorners, b.robustFeasibleAtCorners);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.activeCorners, b.activeCorners);
  EXPECT_EQ(a.nominalEvaluations, b.nominalEvaluations);
  EXPECT_EQ(a.robustEvaluations, b.robustEvaluations);
}

}  // namespace

TEST(ContextDifferential, FlowIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  CacheGuard guard;
  const auto reference = runFlow(/*cacheOn=*/false, /*threads=*/1, nullptr);
  for (const bool cacheOn : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const std::string label = std::string("cache=") + (cacheOn ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      const auto ambient = runFlow(cacheOn, threads, nullptr);
      expectFlowsBitIdentical(reference, ambient, "ambient " + label);
      core::ExecutionContext ctx(deterministicConfig());
      const auto scoped = runFlow(cacheOn, threads, &ctx);
      expectFlowsBitIdentical(ambient, scoped, "explicit " + label);
      // The explicit run actually recorded a slice — the differential would
      // be vacuous if the context never saw the work it paid for.
      EXPECT_FALSE(ctx.sliceCounters().empty()) << label;
    }
  }
}

TEST(ContextDifferential, CornerSearchIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  CacheGuard guard;
  const auto reference = runRobust(/*cacheOn=*/false, /*threads=*/1, nullptr);
  for (const bool cacheOn : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const std::string label = std::string("cache=") + (cacheOn ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      const auto ambient = runRobust(cacheOn, threads, nullptr);
      expectRobustBitIdentical(reference, ambient, "ambient " + label);
      core::ExecutionContext ctx(deterministicConfig());
      const auto scoped = runRobust(cacheOn, threads, &ctx);
      expectRobustBitIdentical(ambient, scoped, "explicit " + label);
      EXPECT_FALSE(ctx.sliceCounters().empty()) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// A reused engine follows its context and its process, never a stale library

namespace {

core::ContextConfig configWithSpace(core::TopologySpaceKind space) {
  core::ContextConfig cfg = deterministicConfig();
  cfg.topologySpace = space;
  return cfg;
}

/// Flow options with the topology space left at Default, so the running
/// context decides which library the topology-select stage ranks.
core::FlowOptions reuseFlowOptions() {
  core::FlowOptions opts;
  opts.loadCap = 5e-12;
  opts.seed = 3;
  opts.maxRedesigns = 1;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  return opts;
}

}  // namespace

TEST(ContextDifferential, ReusedEngineFollowsTheContextsTopologySpace) {
  CacheGuard guard;
  // At 100 dB the generated space ranks a cascoded structure first, while
  // the legacy space can only offer its two cells.
  sz::SpecSet specs;
  specs.atLeast("gain_db", 100.0).atLeast("ugf", 1e6).atLeast("pm", 50.0).minimize(
      "power", 0.5, 1e-3);
  const auto opts = reuseFlowOptions();
  core::ExecutionContext legacyCtx(configWithSpace(core::TopologySpaceKind::Legacy));
  core::ExecutionContext generatedCtx(configWithSpace(core::TopologySpaceKind::Generated));

  core::FlowEngine reused(core::amplifierStageGraph());
  const auto legacy = reused.run(specs, nominal(), opts, legacyCtx);
  const auto generated = reused.run(specs, nominal(), opts, generatedCtx);

  core::FlowEngine fresh(core::amplifierStageGraph());
  const auto reference = fresh.run(specs, nominal(), opts, generatedCtx);
  ASSERT_NE(legacy.topology, reference.topology) << "the spec must separate the spaces";
  expectFlowsBitIdentical(reference, generated, "reused engine, generated context");
}

TEST(ContextDifferential, ReusedEngineFollowsAProcessMutatedInPlace) {
  CacheGuard guard;
  // A 5.2 V swing is outside the OTA's bounds at Vdd = 5 V and inside them
  // at 6 V, where its rules rank it first; stale bounds keep the two-stage.
  sz::SpecSet specs;
  specs.atLeast("gain_db", 40.0).atLeast("ugf", 1e6).atLeast("swing", 5.2).minimize(
      "power", 0.5, 1e-3);
  const auto opts = reuseFlowOptions();
  core::ExecutionContext ctx(configWithSpace(core::TopologySpaceKind::Legacy));

  ckt::Process proc = nominal();
  core::FlowEngine reused(core::amplifierStageGraph());
  const auto before = reused.run(specs, proc, opts, ctx);
  proc.vdd = 6.0;
  const auto after = reused.run(specs, proc, opts, ctx);

  core::FlowEngine fresh(core::amplifierStageGraph());
  const auto reference = fresh.run(specs, proc, opts, ctx);
  ASSERT_NE(before.topology, reference.topology) << "the mutation must change the pick";
  expectFlowsBitIdentical(reference, after, "reused engine, mutated process");
}

// ---------------------------------------------------------------------------
// Registry capacity overflow (satellite: fail loudly, name the offender)
// LAST IN THIS FILE — these fill the registry for their process.

TEST(MetricsRegistryOverflow, CounterExhaustionNamesTheOffendingMetric) {
  std::string offender;
  try {
    for (std::size_t i = 0; i < metrics::kMaxCounters + 1; ++i) {
      offender = "ctx.test.overflow.counter." + std::to_string(i);
      (void)metrics::registry().counter(offender);
    }
    FAIL() << "registering " << metrics::kMaxCounters + 1
           << " fresh counters should exhaust the table";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(offender), std::string::npos)
        << "overflow error must name the offending metric: " << what;
    EXPECT_NE(what.find(std::to_string(metrics::kMaxCounters)), std::string::npos)
        << "overflow error must state the capacity: " << what;
    EXPECT_NE(what.find("counter capacity exhausted"), std::string::npos) << what;
  }
}

TEST(MetricsRegistryOverflow, HistogramExhaustionNamesTheOffendingMetric) {
  std::string offender;
  try {
    for (std::size_t i = 0; i < metrics::kMaxHistograms + 1; ++i) {
      offender = "ctx.test.overflow.hist." + std::to_string(i);
      (void)metrics::registry().histogram(offender);
    }
    FAIL() << "registering " << metrics::kMaxHistograms + 1
           << " fresh histograms should exhaust the table";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(offender), std::string::npos) << what;
    EXPECT_NE(what.find("histogram capacity exhausted"), std::string::npos) << what;
  }
}
