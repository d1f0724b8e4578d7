// Benchmark-owned tracing: spans recorded from outside the program, around
// the calls the ledger makes into each layer.  A span is (name, start, end,
// parent, job); spans live in memory and are written out when the run
// ends.  Self time (duration minus the children's) is computed by the
// reporting side (perfbench/ledger_stats.py), not here.
//
// The recorder is single-threaded by design: every traced path of the
// ledger (stage-wrapped flows, layout replays, corner calls) runs on the
// benchmark's main thread, so the open-span stack needs no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flowgraph.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  long parent = -1;  ///< index into the recorder's spans; -1 = root
  long job = -1;     ///< which call/design the span belongs to
};

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// Open a span as a child of the innermost open one.
  void open(std::string name, long job) {
    SpanRecord s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    s.job = job;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
  }
  /// Close the innermost open span.
  void close() {
    spans_[stack_.back()].endNs = nowNs();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: open for the scope's lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, long job) : rec_(rec) {
    rec_.open(std::move(name), job);
  }
  ~ScopedSpan() { rec_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Timing decorator over one flow stage: the stage runs unchanged inside a
/// "stage.<name>" span of the current job.
class TimedStage : public amsyn::core::FlowStage {
 public:
  TimedStage(std::unique_ptr<amsyn::core::FlowStage> inner, SpanRecorder& rec,
             long job)
      : inner_(std::move(inner)), rec_(rec), job_(job), span_("stage." + inner_->name()) {}
  std::string name() const override { return inner_->name(); }
  amsyn::core::StageOutcome run(amsyn::core::DesignContext& ctx) override {
    ScopedSpan span(rec_, span_, job_);
    return inner_->run(ctx);
  }

 private:
  std::unique_ptr<amsyn::core::FlowStage> inner_;
  SpanRecorder& rec_;
  long job_;
  std::string span_;
};

/// amplifierStageGraph() with every stage wrapped in a TimedStage.
inline std::vector<std::unique_ptr<amsyn::core::FlowStage>> timedAmplifierGraph(
    SpanRecorder& rec, long job) {
  auto stages = amsyn::core::amplifierStageGraph();
  for (auto& s : stages) s = std::make_unique<TimedStage>(std::move(s), rec, job);
  return stages;
}

}  // namespace perfbench
