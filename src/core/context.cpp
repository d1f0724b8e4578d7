#include "core/context.hpp"

#include <cctype>
#include <string>

#include "core/envknobs.hpp"

namespace amsyn::core {

namespace {

SolverKind parseSolverKind(const std::string& s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s)
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "dense") return SolverKind::Dense;
  if (lower == "sparse") return SolverKind::Sparse;
  return SolverKind::Auto;  // "auto", unset, and unrecognized values
}

/// The calling thread's installed context (innermost ContextScope).
thread_local ExecutionContext* tlCurrent = nullptr;

}  // namespace

ContextConfig ContextConfig::fromEnv() {
  ContextConfig cfg;
  cfg.threads = envknobs::threads();
  cfg.solver = parseSolverKind(envknobs::solver());
  cfg.evalCacheEnabled = envknobs::evalCacheEnabled();
  cfg.evalCacheCapacity = envknobs::evalCacheCapacity();
  cfg.evalCacheQuantum = envknobs::evalCacheQuantum();
  cfg.jobDeadlineMs = envknobs::jobDeadlineMs();
  cfg.topologySpace = envknobs::topologySpaceIndex() == 1
                          ? TopologySpaceKind::Generated
                          : TopologySpaceKind::Legacy;
  return cfg;
}

ExecutionContext::ExecutionContext(ContextConfig cfg, ContextIsolation isolation)
    : ExecutionContext(std::move(cfg), isolation, /*parent=*/nullptr,
                       /*isAmbient=*/false) {}

ExecutionContext::ExecutionContext(ContextConfig cfg, ContextIsolation isolation,
                                   ExecutionContext* parent, bool isAmbient)
    : config_(std::move(cfg)), parent_(parent) {
  solver_.store(config_.solver, std::memory_order_relaxed);

  if (isolation.evalCache) {
    ownedEvalCache_ = cache::EvalCache::createIsolated();
    ownedEvalCache_->setEnabled(config_.evalCacheEnabled);
    if (config_.evalCacheCapacity > 0)
      ownedEvalCache_->setCapacity(config_.evalCacheCapacity);
    ownedEvalCache_->setQuantum(config_.evalCacheQuantum);
    evalCache_ = ownedEvalCache_.get();
  } else if (parent_) {
    evalCache_ = &parent_->evalCache();
  } else {
    // Shared handle: the singleton already seeded its policy from the same
    // env parsers this config came through, and explicit contexts must not
    // re-apply it — a test (or tenant) that disabled the shared cache would
    // otherwise have it silently re-enabled by the next context creation.
    evalCache_ = &cache::EvalCache::instance();
  }

  if (parent_) solver_.store(parent_->solverKind(), std::memory_order_relaxed);

  // Every context except the ambient one records a slice; the ambient hot
  // path stays a thread-local null check in Registry::add.
  if (!isAmbient) {
    slice_ = std::make_unique<metrics::ContextSlice>();
    slice_->setParent(parent_ ? parent_->metricsSlice() : nullptr);
  }
}

ExecutionContext::~ExecutionContext() = default;

ExecutionContext& ExecutionContext::ambient() {
  // Leaked, like the registry: reachable from thread-exit hooks and static
  // destructors.  Construction is thread-safe (magic static) and snapshots
  // the environment exactly once per process.
  static ExecutionContext* ctx = new ExecutionContext(
      ContextConfig::fromEnv(), ContextIsolation{}, /*parent=*/nullptr,
      /*isAmbient=*/true);
  return *ctx;
}

ExecutionContext& ExecutionContext::current() {
  return tlCurrent ? *tlCurrent : ambient();
}

ExecutionContext* ExecutionContext::scoped() { return tlCurrent; }

std::unique_ptr<ExecutionContext> ExecutionContext::makeChild() {
  return std::unique_ptr<ExecutionContext>(new ExecutionContext(
      config_, ContextIsolation{}, /*parent=*/this, /*isAmbient=*/false));
}

const FaultScheduleState* ExecutionContext::armedFaultSchedule() const {
  for (const ExecutionContext* c = this; c; c = c->parent_)
    if (c->faultSchedule_.armed.load(std::memory_order_acquire))
      return &c->faultSchedule_;
  return nullptr;
}

std::map<std::string, std::uint64_t> ExecutionContext::sliceCounters() const {
  return slice_ ? slice_->counters() : std::map<std::string, std::uint64_t>{};
}

ContextScope::ContextScope(ExecutionContext& ctx)
    : prev_(tlCurrent), sliceScope_(ctx.metricsSlice()) {
  tlCurrent = &ctx;
}

ContextScope::~ContextScope() { tlCurrent = prev_; }

}  // namespace amsyn::core
