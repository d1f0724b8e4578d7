#include "sim/solver.hpp"

#include <atomic>
#include <cctype>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/context.hpp"

namespace amsyn::sim {

namespace {

// SolverMode <-> core::SolverKind: the preference is stored per
// ExecutionContext (core layer, below sim), so the two enums mirror each
// other and the sim layer maps at its boundary.
SolverMode fromKind(core::SolverKind k) {
  switch (k) {
    case core::SolverKind::Dense: return SolverMode::Dense;
    case core::SolverKind::Sparse: return SolverMode::Sparse;
    case core::SolverKind::Auto: break;
  }
  return SolverMode::Auto;
}

core::SolverKind toKind(SolverMode m) {
  switch (m) {
    case SolverMode::Dense: return core::SolverKind::Dense;
    case SolverMode::Sparse: return core::SolverKind::Sparse;
    case SolverMode::Auto: break;
  }
  return core::SolverKind::Auto;
}

struct SymbolicCache {
  std::mutex mu;
  std::map<core::cache::Digest128, std::shared_ptr<const num::SparseLuSymbolic>> map;
};

SymbolicCache& symbolicCache() {
  static SymbolicCache* c = new SymbolicCache;  // leaked: reachable at exit
  return *c;
}

}  // namespace

SolverMode solverMode() {
  // Context-resolved: code running without an installed scope sees the
  // ambient context, whose initial preference came from AMSYN_SOLVER —
  // exactly the old process-global behavior.  A job context's override
  // stays in that job.
  return fromKind(core::ExecutionContext::current().solverKind());
}

void setSolverMode(SolverMode m) {
  core::ExecutionContext::current().setSolverKind(toKind(m));
}

std::optional<SolverMode> parseSolverMode(std::string_view s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s) lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "auto") return SolverMode::Auto;
  if (lower == "dense") return SolverMode::Dense;
  if (lower == "sparse") return SolverMode::Sparse;
  return std::nullopt;
}

const char* solverModeName(SolverMode m) {
  switch (m) {
    case SolverMode::Auto: return "auto";
    case SolverMode::Dense: return "dense";
    case SolverMode::Sparse: return "sparse";
  }
  return "auto";
}

bool useSparseSolver(std::size_t n) {
  switch (solverMode()) {
    case SolverMode::Dense: return false;
    case SolverMode::Sparse: return n > 1;  // 1x1 systems: nothing to win
    case SolverMode::Auto: return n >= kSparseAutoThreshold;
  }
  return false;
}

std::shared_ptr<const num::SparseLuSymbolic> lookupSymbolic(
    const core::cache::Digest128& key) {
  SymbolicCache& c = symbolicCache();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.map.find(key);
  return it == c.map.end() ? nullptr : it->second;
}

void publishSymbolic(const core::cache::Digest128& key,
                     std::shared_ptr<const num::SparseLuSymbolic> sym) {
  if (!sym) return;
  SymbolicCache& c = symbolicCache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.map[key] = std::move(sym);  // last analysis wins (freshest pivot sequence)
}

const SparseCounters& sparseCounters() {
  static const SparseCounters ids = [] {
    auto& reg = core::metrics::registry();
    SparseCounters c;
    c.analyses = reg.counter("sim.sparse.analyses");
    c.refactors = reg.counter("sim.sparse.refactors");
    c.pivotDrift = reg.counter("sim.sparse.pivot_drift");
    c.denseFallbacks = reg.counter("sim.sparse.dense_fallbacks");
    c.symbolicHits = reg.counter("sim.sparse.symbolic_hits");
    c.symbolicMisses = reg.counter("sim.sparse.symbolic_misses");
    c.solves = reg.counter("sim.sparse.solves");
    return c;
  }();
  return ids;
}

template <typename T>
SparseFactorOutcome SparsePatternSolver<T>::factor(const num::CscMatrix<T>& a) {
  if (fallback_) return SparseFactorOutcome::Fallback;
  const SparseCounters& ctr = sparseCounters();
  if (!triedAdopt_) {
    triedAdopt_ = true;
    if (auto sym = lookupSymbolic(key_)) {
      lu_.adoptSymbolic(std::move(sym));
      core::metrics::add(ctr.symbolicHits);
    } else {
      core::metrics::add(ctr.symbolicMisses);
    }
  }
  const std::uint64_t a0 = lu_.analyzeCount();
  const std::uint64_t r0 = lu_.refactorCount();
  const std::uint64_t d0 = lu_.pivotDriftCount();
  const num::SparseLuStatus st = lu_.factor(a);
  core::metrics::add(ctr.analyses, lu_.analyzeCount() - a0);
  core::metrics::add(ctr.refactors, lu_.refactorCount() - r0);
  core::metrics::add(ctr.pivotDrift, lu_.pivotDriftCount() - d0);
  switch (st) {
    case num::SparseLuStatus::Ok:
      if (lu_.analyzeCount() != a0) publishSymbolic(key_, lu_.symbolic());
      return SparseFactorOutcome::Ok;
    case num::SparseLuStatus::Singular:
      return SparseFactorOutcome::Singular;
    case num::SparseLuStatus::ExcessFill:
    case num::SparseLuStatus::PivotGrowth:
      break;
  }
  fallback_ = true;
  core::metrics::add(ctr.denseFallbacks);
  return SparseFactorOutcome::Fallback;
}

template class SparsePatternSolver<double>;
template class SparsePatternSolver<std::complex<double>>;

template <typename T>
LinearSolver<T>::LinearSolver(const Mna& mna, std::string_view domain) {
  const num::CscMatrix<double>& pattern = mna.pattern();
  a_.n = pattern.n;
  a_.colPtr = pattern.colPtr;
  a_.row = pattern.row;
  a_.val.assign(pattern.row.size(), T{});
  if (useSparseSolver(a_.n))
    sparse_ = std::make_unique<SparsePatternSolver<T>>(mna.patternDigest(), domain);
}

template <typename T>
bool LinearSolver<T>::factor() {
  if (sparseActive()) {
    switch (sparse_->factor(a_)) {
      case SparseFactorOutcome::Ok: return true;
      case SparseFactorOutcome::Singular: return false;  // dense LU would throw too
      case SparseFactorOutcome::Fallback: break;  // a guard tripped: dense from here on
    }
  }
  if (dense_.rows() != a_.n) dense_ = num::Matrix<T>(a_.n, a_.n);
  for (std::size_t col = 0; col < a_.n; ++col)
    for (std::size_t k = a_.colPtr[col]; k < a_.colPtr[col + 1]; ++k)
      dense_(a_.row[k], col) = a_.val[k];
  try {
    lu_.emplace(dense_);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

template <typename T>
std::vector<T> LinearSolver<T>::solve(const std::vector<T>& b) const {
  return sparseActive() ? sparse_->solve(b) : lu_->solve(b);
}

template <typename T>
std::vector<T> LinearSolver<T>::solveTransposed(const std::vector<T>& b) const {
  return sparseActive() ? sparse_->solveTransposed(b) : lu_->solveTransposed(b);
}

template class LinearSolver<double>;
template class LinearSolver<std::complex<double>>;

}  // namespace amsyn::sim
