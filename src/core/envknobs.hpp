// The single sanctioned locus for AMSYN_* environment reads.
//
// Every process-level tuning knob (threads, solver mode, eval-cache policy,
// job deadline, topology space) is parsed here and nowhere else:
// core::ContextConfig::fromEnv() snapshots all of them once into a plain
// struct, and the two bottom-layer subsystems that must self-seed before
// any ExecutionContext exists (the shared EvalCache singleton and the
// global thread pool) call the same parsers so their defaults cannot drift
// from the config's.  tools/context_lint.cmake
// fails the build when `getenv("AMSYN_` appears in any other file under
// src/, so new knobs are forced through this header and therefore through
// ContextConfig.
//
// Header-only and dependency-free on purpose: it is included from
// amsyn_metrics-adjacent leaf libraries (evalcache, parallel)
// as well as from amsyn_context, so it must sit below all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace amsyn::core::envknobs {

/// AMSYN_THREADS: worker count for the global pool.  0 = unset or
/// unparseable (callers fall back to hardware_concurrency); parsed values
/// clamp to [1, 512] so a typo cannot spawn an absurd pool.
inline std::size_t threads() {
  const char* env = std::getenv("AMSYN_THREADS");
  if (!env) return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v < 1) return 0;
  return static_cast<std::size_t>(v > 512 ? 512 : v);
}

/// AMSYN_SOLVER: "auto" (default), "dense", or "sparse" — forwarded to the
/// sim layer's solver-mode parser, so the string is reported verbatim and
/// unknown values fall back to auto there.
inline std::string solver() {
  const char* env = std::getenv("AMSYN_SOLVER");
  return env ? std::string(env) : std::string();
}

/// AMSYN_EVAL_CACHE: enabled unless explicitly turned off with one of
/// "0"/"off"/"false"/"no".
inline bool evalCacheEnabled() {
  if (const char* env = std::getenv("AMSYN_EVAL_CACHE")) {
    const std::string v(env);
    if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  }
  return true;
}

/// AMSYN_EVAL_CACHE_CAPACITY: max resident entries (default 2^16); values
/// below 1 fall back to the default so the cache cannot be configured into
/// a degenerate always-evict state by accident (use AMSYN_EVAL_CACHE=0 to
/// turn it off).
inline std::size_t evalCacheCapacity() {
  if (const char* env = std::getenv("AMSYN_EVAL_CACHE_CAPACITY")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{1} << 16;  // 65536 entries; ~tens of MB of Performance maps
}

/// AMSYN_EVAL_CACHE_QUANTUM: coordinate quantization step for key hashing;
/// only values in (0, 0.5) are meaningful, everything else means "exact
/// bits" (0.0) — the only mode with the bit-identity proof.
inline double evalCacheQuantum() {
  if (const char* env = std::getenv("AMSYN_EVAL_CACHE_QUANTUM")) {
    const double v = std::atof(env);
    if (v > 0.0 && v < 0.5) return v;
  }
  return 0.0;
}

/// AMSYN_JOB_DEADLINE_MS: default per-job wall-clock deadline (0 = none).
/// Only a fully-numeric value counts; trailing garbage means unset.
inline std::uint64_t jobDeadlineMs() {
  const char* env = std::getenv("AMSYN_JOB_DEADLINE_MS");
  if (!env) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (!end || *end != '\0') return 0;
  return static_cast<std::uint64_t>(v);
}

/// AMSYN_TOPOLOGY_SPACE: "generated"/"composed" select the composed
/// block-level space; anything else (including unset) keeps the legacy
/// curated library.  Returned as 0 (legacy) / 1 (generated).
inline int topologySpaceIndex() {
  const char* env = std::getenv("AMSYN_TOPOLOGY_SPACE");
  if (!env || !*env) return 0;
  const std::string v(env);
  return (v == "generated" || v == "composed") ? 1 : 0;
}

}  // namespace amsyn::core::envknobs
