#include "core/jobqueue.hpp"

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/runreport.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace amsyn::core {

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Succeeded: return "succeeded";
    case JobState::Failed: return "failed";
    case JobState::Rejected: return "rejected";
  }
  return "unknown";
}

namespace {

/// Registered eagerly (first queue construction) so the run-report counter
/// schema does not depend on which jobs ran.
struct JobCounters {
  metrics::CounterId submitted;
  metrics::CounterId admitted;
  metrics::CounterId rejected;
  metrics::CounterId succeeded;
  metrics::CounterId failed;
  metrics::CounterId retries;
  metrics::CounterId resumed;
  metrics::CounterId exceptions;
};
const JobCounters& jobCounters() {
  static const JobCounters ids = {
      metrics::registry().counter("core.jobs.submitted"),
      metrics::registry().counter("core.jobs.admitted"),
      metrics::registry().counter("core.jobs.rejected"),
      metrics::registry().counter("core.jobs.succeeded"),
      metrics::registry().counter("core.jobs.failed"),
      metrics::registry().counter("core.jobs.retries"),
      metrics::registry().counter("core.jobs.resumed"),
      metrics::registry().counter("core.jobs.exceptions"),
  };
  return ids;
}

JobJournalEntry toJournalEntry(const JobRecord& rec) {
  JobJournalEntry e;
  e.job = rec.index;
  e.attempts = rec.attempts;
  e.success = rec.result.success;
  e.topology = rec.result.topology;
  e.status = rec.result.failureStatus;
  e.failureReason = rec.result.failureReason;
  e.redesigns = rec.result.redesigns;
  return e;
}

JobRecord fromJournalEntry(const JobJournalEntry& e) {
  JobRecord rec;
  rec.index = e.job;
  rec.attempts = e.attempts;
  rec.fromJournal = true;
  rec.result.success = e.success;
  rec.result.topology = e.topology;
  rec.result.failureStatus = e.status;
  rec.result.failureReason = e.failureReason;
  rec.result.redesigns = e.redesigns;
  rec.state = e.success                              ? JobState::Succeeded
              : e.status == EvalStatus::Rejected     ? JobState::Rejected
                                                     : JobState::Failed;
  return rec;
}

}  // namespace

JobQueue::JobQueue(JobQueueOptions opts) : opts_(std::move(opts)) {
  (void)jobCounters();
}

JobRecord JobQueue::runOne(std::size_t index, const sizing::SpecSet& specs,
                           const circuit::Process& proc) {
  // One child context per job: same config/handles as the submitting
  // tenant's context (or ambient), its own metrics slice and fault schedule
  // falling back to the parent chain — so a tenant's armed chaos plan
  // governs its jobs but never its siblings'.
  const auto jobContext = ExecutionContext::current().makeChild();
  ContextScope contextScope(*jobContext);
  // Bind this job's fault-occurrence counters to whichever pool thread
  // picked it up; retries run inside the same scope so each attempt sees
  // fresh, deterministic draws.
  sim::BatchFaultScope faultScope(index);
  JobRecord rec;
  rec.index = index;
  rec.state = JobState::Running;

  FlowOptions fo = batchItemOptions(opts_.flow, index);
  if (opts_.deadlineMs != 0) fo.deadlineMs = opts_.deadlineMs;

  for (std::size_t attempt = 1;; ++attempt) {
    rec.attempts = attempt;
    FlowResult r;
    try {
      if (sim::takeBatchFault(sim::FaultSite::JobTask))
        throw std::runtime_error("injected job-task fault (chaos schedule)");
      FlowEngine engine(opts_.stageFactory ? opts_.stageFactory()
                                           : amplifierStageGraph());
      r = engine.run(specs, proc, fo);
    } catch (...) {
      // A throwing job is a failed record, never a lost batch.  bad_alloc
      // classifies as out_of_memory, which the retry policy hard-excludes.
      metrics::add(jobCounters().exceptions);
      r = FlowResult{};
      r.success = false;
      r.failureStatus = classifyCurrentException();
      r.failureReason = std::string("job task exception contained: ") +
                        evalStatusName(r.failureStatus);
    }
    rec.result = std::move(r);
    if (rec.result.success) {
      rec.state = JobState::Succeeded;
      return rec;
    }
    if (!opts_.retry.shouldRetry(rec.result.failureStatus, attempt)) {
      rec.state = JobState::Failed;
      return rec;
    }
    metrics::add(jobCounters().retries);
    const std::uint64_t delay = opts_.retry.backoff.delayMs(fo.seed, attempt);
    if (delay != 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

BatchRunResult JobQueue::run(const std::vector<sizing::SpecSet>& batch,
                             const circuit::Process& proc) {
  AMSYN_SPAN("job_queue");
  const auto& counters = jobCounters();
  metrics::add(counters.submitted, batch.size());
  applyEvalCacheOptions(opts_.flow.evalCache);
  applySolverOption(opts_.flow.solver);

  BatchRunResult out;
  out.jobs.resize(batch.size());

  // Journal recovery: keep the longest valid prefix of complete lines and
  // rewrite the file to exactly that, so a torn tail from a crash can never
  // be concatenated onto by this run's appends.
  std::map<std::size_t, JobJournalEntry> journaled;
  std::optional<BatchJournal> journal;
  if (!opts_.journalPath.empty()) {
    journal.emplace(opts_.journalPath);
    if (opts_.resume) {
      journaled = BatchJournal::load(opts_.journalPath);
      for (auto it = journaled.begin(); it != journaled.end();)
        it = it->first >= batch.size() ? journaled.erase(it) : std::next(it);
    }
    journal->rewrite(journaled);
  }
  std::mutex journalMutex;
  const auto journalAppend = [&](const JobRecord& rec) {
    if (!journal) return;
    std::lock_guard<std::mutex> lock(journalMutex);
    journal->append(toJournalEntry(rec));
  };

  // Admission: a pure function of index and capacity — job i is admitted
  // iff i < maxPending — so a resumed run sheds exactly the jobs the full
  // run would have, and the final report is identical either way.
  const std::size_t cap = opts_.maxPending == 0 ? batch.size() : opts_.maxPending;
  std::vector<std::size_t> toRun;
  toRun.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (const auto it = journaled.find(i); it != journaled.end()) {
      out.jobs[i] = fromJournalEntry(it->second);
      ++out.resumed;
      metrics::add(counters.resumed);
      continue;
    }
    if (i >= cap) {
      JobRecord& rec = out.jobs[i];
      rec.index = i;
      rec.state = JobState::Rejected;
      rec.attempts = 0;
      rec.result.success = false;
      rec.result.failureStatus = EvalStatus::Rejected;
      rec.result.failureReason =
          "admission control: queue capacity " + std::to_string(cap) + " exceeded";
      ++out.rejected;
      metrics::add(counters.rejected);
      sim::recordEvalFailure(EvalStatus::Rejected);
      journalAppend(rec);
      continue;
    }
    out.jobs[i].index = i;
    toRun.push_back(i);
  }
  out.admitted = toRun.size();
  metrics::add(counters.admitted, toRun.size());

  parallelFor(toRun.size(), [&](std::size_t k) {
    const std::size_t i = toRun[k];
    JobRecord rec = runOne(i, batch[i], proc);
    journalAppend(rec);
    out.jobs[i] = std::move(rec);  // index-exclusive slot: no race
  });

  for (const auto& rec : out.jobs) {
    if (rec.fromJournal) continue;
    if (rec.state == JobState::Succeeded) metrics::add(counters.succeeded);
    if (rec.state == JobState::Failed) metrics::add(counters.failed);
    if (rec.attempts > 1) out.retried += rec.attempts - 1;
  }
  return out;
}

std::string batchRunReportJson(const BatchRunResult& result) {
  RunReport report;
  report.name = "jobs";
  report.includeMetrics = false;  // metrics differ between full and resumed
  report.includeSpans = false;    // runs; the report sticks to outcomes
  std::size_t succeeded = 0, failed = 0, rejected = 0;
  for (const auto& rec : result.jobs) {
    succeeded += rec.state == JobState::Succeeded ? 1 : 0;
    failed += rec.state == JobState::Failed ? 1 : 0;
    rejected += rec.state == JobState::Rejected ? 1 : 0;
  }
  report.addValue("jobs", static_cast<double>(result.jobs.size()))
      .addValue("succeeded", static_cast<double>(succeeded))
      .addValue("failed", static_cast<double>(failed))
      .addValue("rejected", static_cast<double>(rejected));
  for (const auto& rec : result.jobs) {
    const std::string prefix = "job." + std::to_string(rec.index) + ".";
    report.addInfo(prefix + "state", jobStateName(rec.state));
    report.addInfo(prefix + "topology", rec.result.topology);
    report.addInfo(prefix + "status", evalStatusName(rec.result.failureStatus));
    report.addInfo(prefix + "failure_reason", rec.result.failureReason);
    report.addValue(prefix + "success", rec.result.success ? 1.0 : 0.0);
    report.addValue(prefix + "attempts", static_cast<double>(rec.attempts));
    report.addValue(prefix + "redesigns", static_cast<double>(rec.result.redesigns));
  }
  return report.toJson();
}

BatchRunResult runBatchResilient(const std::vector<sizing::SpecSet>& batch,
                                 const circuit::Process& proc,
                                 const JobQueueOptions& opts) {
  return JobQueue(opts).run(batch, proc);
}

}  // namespace amsyn::core
