// Reference oracle for the stream-free report renderers.
//
// The reference_* functions below are the std::ostringstream renderers
// that CpRecord::render, StateRecorder::render, TraceLog::render,
// BugReport::signature and the detector's deadlock description replaced,
// kept verbatim (BugReport::render still streams; its copy pins it too).
// The production renderers must produce the same bytes: every catalog
// scenario, bug and benign variant, runs over a seed sweep, and each
// session's CP records, trace log and filed report are rendered both
// ways.  Hand-built edge cases cover what the catalog never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/session.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/sim/trace.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {
namespace {

// --- the stream renderers, kept as the oracle --------------------------------

std::string reference_render(const CpRecord& record,
                             const pfa::Alphabet& alphabet) {
  std::ostringstream out;
  out << '(' << to_string(record.qm) << ", " << to_string(record.qs) << ", ";
  for (std::size_t i = 0; i < record.tp.size(); ++i) {
    if (i != 0) out << "->";
    out << alphabet.name(record.tp[i]);
  }
  out << ", " << record.sn << ", ";
  const auto rest = record.delta();
  if (rest.empty()) {
    out << "-";
  } else {
    for (std::size_t i = 0; i < rest.size(); ++i) {
      if (i != 0) out << "->";
      out << alphabet.name(rest[i]);
    }
  }
  out << ')';
  return out.str();
}

std::string reference_render(const StateRecorder& recorder,
                             const pfa::Alphabet& alphabet) {
  std::ostringstream out;
  for (const auto& [slot, cp] : recorder.records()) {
    out << "CP" << slot << "= " << reference_render(cp, alphabet) << '\n';
  }
  return out.str();
}

std::string reference_render(const std::vector<sim::TraceEvent>& events) {
  std::ostringstream out;
  for (const sim::TraceEvent& e : events) {
    out << e.tick << " [" << to_string(e.category) << "] " << e.message
        << '\n';
  }
  return out.str();
}

std::string reference_render(const sim::TraceLog& log, std::size_t count) {
  return reference_render(log.tail(count));
}

std::string reference_signature(const BugReport& report) {
  std::ostringstream out;
  out << to_string(report.kind);
  std::vector<pcore::TaskId> sorted = report.culprits;
  std::sort(sorted.begin(), sorted.end());
  for (const auto t : sorted) out << ':' << static_cast<int>(t);
  if (report.kind == BugKind::kSlaveCrash) {
    out << '|' << report.kernel.panic_reason;
  }
  return out.str();
}

std::string reference_deadlock_description(
    const std::vector<pcore::TaskId>& cycle) {
  std::ostringstream desc;
  desc << "wait-for cycle:";
  for (const auto t : cycle) desc << " task" << static_cast<int>(t);
  return desc.str();
}

std::string reference_render(const BugReport& report,
                             const pfa::Alphabet& alphabet) {
  const pcore::KernelSnapshot& kernel = report.kernel;
  std::ostringstream out;
  out << "=== pTest bug report ===\n"
      << "kind       : " << to_string(report.kind) << '\n'
      << "detected at: tick " << report.detected_at << '\n'
      << "description: " << report.description << '\n';
  if (!report.culprits.empty()) {
    out << "culprit tasks:";
    for (const auto t : report.culprits) out << ' ' << static_cast<int>(t);
    out << '\n';
  }
  out << "slave kernel: " << (kernel.panicked ? "PANICKED" : "alive")
      << ", live tasks " << kernel.live_tasks << ", service calls "
      << kernel.service_calls << '\n';
  if (kernel.panicked) out << "panic reason: " << kernel.panic_reason << '\n';
  for (const auto& task : kernel.tasks) {
    out << "  task " << static_cast<int>(task.id) << " [" << task.program
        << "] " << pcore::to_string(task.state) << " prio "
        << static_cast<int>(task.priority);
    if (task.waiting_on) {
      out << " waiting-on mutex " << static_cast<int>(*task.waiting_on);
    }
    if (!task.holds.empty()) {
      out << " holds";
      for (const auto m : task.holds) out << " m" << static_cast<int>(m);
    }
    out << '\n';
  }
  out << "state records (Definition 2):\n" << report.state_records;
  out << "merged pattern: " << report.merged.render(alphabet) << '\n';
  out << "seed: " << report.seed << '\n';
  if (!report.trace_tail.empty()) out << "trace tail:\n" << report.trace_tail;
  return out.str();
}

// --- catalog sweep -------------------------------------------------------------

constexpr std::uint64_t kSeedsPerVariant = 48;

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t reports = 0;
  std::set<BugKind> kinds;
};

/// Renders the session's recorder and trace both ways, and, when a report
/// was filed, checks every rendered field against the reference applied
/// to the state the detector saw when it filed.
void check_session(const CompiledTestPlan& plan, std::uint64_t seed,
                   const WorkloadSetup& setup, pfa::WalkScratch& scratch,
                   SweepTotals& totals) {
  const pfa::Alphabet& alphabet = plan.alphabet;
  const AdaptiveTestResult generated =
      generate_and_merge(plan, seed, scratch);
  PtestConfig config = plan.config;
  config.seed = seed;
  TestSession session(config, alphabet, generated.merged, generated.patterns,
                      setup);
  const SessionResult result = session.run();
  ++totals.sessions;

  const StateRecorder& recorder = session.recorder();
  for (const auto& [slot, cp] : recorder.records()) {
    EXPECT_EQ(cp.render(alphabet), reference_render(cp, alphabet))
        << "slot " << slot;
  }
  EXPECT_EQ(recorder.render(), reference_render(recorder, alphabet));

  const sim::TraceLog& trace = session.soc().trace();
  const std::size_t lines = config.detector.report_trace_lines;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, lines, trace.size(),
        trace.size() + 7}) {
    EXPECT_EQ(trace.render(count), reference_render(trace, count))
        << "count " << count;
  }

  // The same session through core::execute: the report TestSession moves
  // out must match the one rendered here field for field.
  const AdaptiveTestResult executed = execute(plan, seed, setup, scratch);
  ASSERT_EQ(executed.session.report.has_value(), result.report.has_value());
  if (!result.report) return;
  const BugReport& report = *result.report;
  ++totals.reports;
  totals.kinds.insert(report.kind);

  // The detector is the last device and stops the run on the tick it
  // files, so the recorder still holds the filed state; the only trace
  // event after the render is the detector's own "bug detected" line.
  EXPECT_EQ(report.state_records, reference_render(recorder, alphabet));
  std::vector<sim::TraceEvent> filed = trace.tail(lines + 1);
  ASSERT_FALSE(filed.empty());
  EXPECT_EQ(filed.back().category, sim::TraceCategory::kDetector);
  EXPECT_EQ(filed.back().message,
            std::string("bug detected: ") + to_string(report.kind));
  filed.pop_back();
  EXPECT_EQ(report.trace_tail, reference_render(filed));
  EXPECT_EQ(report.signature(), reference_signature(report));
  if (report.kind == BugKind::kDeadlock) {
    EXPECT_EQ(report.description,
              reference_deadlock_description(report.culprits));
  }
  EXPECT_EQ(report.seed, seed);
  EXPECT_EQ(report.render(alphabet), reference_render(report, alphabet));

  const BugReport& moved = *executed.session.report;
  EXPECT_EQ(moved.kind, report.kind);
  EXPECT_EQ(moved.detected_at, report.detected_at);
  EXPECT_EQ(moved.description, report.description);
  EXPECT_EQ(moved.culprits, report.culprits);
  EXPECT_EQ(moved.state_records, report.state_records);
  EXPECT_EQ(moved.trace_tail, report.trace_tail);
  EXPECT_EQ(moved.signature(), report.signature());
  EXPECT_EQ(moved.render(alphabet), report.render(alphabet));
}

void sweep_variant(const std::string& label, const PtestConfig& config,
                   const WorkloadSetup& setup, SweepTotals& totals) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  for (std::uint64_t run = 0; run < kSeedsPerVariant; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    SCOPED_TRACE(label + " seed " + std::to_string(seed));
    check_session(*plan, seed, setup, scratch, totals);
  }
}

TEST(RenderReferenceTest, CatalogSweepMatchesStreamRenderers) {
  SweepTotals totals;
  for (const scenario::Scenario& entry :
       scenario::ScenarioRegistry::builtin().all()) {
    sweep_variant(entry.name, entry.config, entry.setup, totals);
    if (entry.has_benign()) {
      sweep_variant(entry.name + " (benign)", entry.benign_plan(),
                    entry.benign_workload(), totals);
    }
  }
  EXPECT_GT(totals.reports, totals.sessions / 4);
  for (const BugKind kind : {BugKind::kSlaveCrash, BugKind::kDeadlock,
                             BugKind::kNoTermination, BugKind::kStarvation}) {
    EXPECT_TRUE(totals.kinds.count(kind)) << to_string(kind);
  }
}

// --- edge cases ------------------------------------------------------------------

struct Symbols {
  pfa::Alphabet alphabet;
  pfa::SymbolId tc = alphabet.intern("TC");
  pfa::SymbolId ts = alphabet.intern("TS");
  pfa::SymbolId tr = alphabet.intern("TR");
  pfa::SymbolId td = alphabet.intern("TD");
};

TEST(RenderReferenceTest, CpRecordEdgePositions) {
  Symbols s;
  const std::vector<std::vector<pfa::SymbolId>> patterns = {
      {}, {s.tc}, {s.tc, s.ts, s.tr, s.td}};
  for (const auto& tp : patterns) {
    // sn = 0 (before the first state), every position, sn = tp.size()
    // (nothing left) and one past it.
    for (std::size_t sn = 0; sn <= tp.size() + 1; ++sn) {
      CpRecord record;
      record.tp = tp;
      record.sn = sn;
      record.qm = static_cast<MasterState>(sn % 5);
      record.qs = static_cast<SlaveState>((sn + 2) % 5);
      SCOPED_TRACE("tp size " + std::to_string(tp.size()) + " sn " +
                   std::to_string(sn));
      EXPECT_EQ(record.render(s.alphabet),
                reference_render(record, s.alphabet));
      std::string appended = "prefix";
      record.append_to(appended, s.alphabet);
      EXPECT_EQ(appended, "prefix" + reference_render(record, s.alphabet));
    }
  }
  CpRecord empty;
  EXPECT_EQ(empty.render(s.alphabet), "(idle, none, , 0, -)");
}

TEST(RenderReferenceTest, StateRecorderEmptyAndSparseSlots) {
  Symbols s;
  StateRecorder recorder(s.alphabet);
  EXPECT_EQ(recorder.render(), "");
  EXPECT_EQ(recorder.render(), reference_render(recorder, s.alphabet));
  recorder.assign(0, {});
  recorder.assign(3, {s.tc, s.td});
  recorder.assign(12, {s.tc, s.ts, s.tr, s.td});
  recorder.on_issue({1, 12, s.tc, bridge::Service::kTaskCreate, 0});
  EXPECT_EQ(recorder.render(), reference_render(recorder, s.alphabet));
}

TEST(RenderReferenceTest, TraceLogEmptyOverlongAndWideTicks) {
  sim::TraceLog log(8);
  for (const std::size_t count : {0, 1, 5}) {
    EXPECT_EQ(log.render(count), "");
    EXPECT_EQ(log.render(count), reference_render(log, count));
  }
  log.record(0, sim::TraceCategory::kKernel, "boot");
  log.record(std::uint64_t{1} << 32, sim::TraceCategory::kMailbox, "");
  log.record((std::uint64_t{1} << 32) + 1, sim::TraceCategory::kFault,
             "fault injected");
  log.record(std::numeric_limits<sim::Tick>::max(),
             sim::TraceCategory::kDetector, "last");
  for (const std::size_t count : {0, 1, 3, 4, 5, 100}) {
    EXPECT_EQ(log.render(count), reference_render(log, count))
        << "count " << count;
  }
  EXPECT_EQ(log.render(1), "18446744073709551615 [detector] last\n");

  // Evicted events stay out of the rendering.
  for (int i = 0; i < 10; ++i) {
    log.record(static_cast<sim::Tick>(i), sim::TraceCategory::kBridge,
               "cmd " + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.render(100), reference_render(log, 100));
}

TEST(RenderReferenceTest, SignatureSortsCulpritsAndKeepsPanicReason) {
  BugReport report;
  report.kind = BugKind::kDeadlock;
  report.culprits = {15, 1, 9, 1, pcore::kInvalidTask, 0};
  EXPECT_EQ(report.signature(), "deadlock:0:1:1:9:15:255");
  EXPECT_EQ(report.signature(), reference_signature(report));

  report.kind = BugKind::kSlaveCrash;
  report.culprits.clear();
  report.kernel.panicked = true;
  report.kernel.panic_reason = "gc: corrupted header at offset 96";
  EXPECT_EQ(report.signature(),
            "slave-crash|gc: corrupted header at offset 96");
  EXPECT_EQ(report.signature(), reference_signature(report));

  // A panic reason only enters crash signatures.
  report.kind = BugKind::kStarvation;
  report.culprits = {4};
  EXPECT_EQ(report.signature(), "starvation:4");
  EXPECT_EQ(report.signature(), reference_signature(report));
}

TEST(RenderReferenceTest, FullReportWithPanicAndWideTick) {
  Symbols s;
  BugReport report;
  report.kind = BugKind::kSlaveCrash;
  report.detected_at = (std::uint64_t{1} << 40) + 3;
  report.description = "slave kernel panicked: gc: double free";
  report.culprits = {7, 2};
  report.kernel.panicked = true;
  report.kernel.panic_reason = "gc: double free";
  report.kernel.live_tasks = 2;
  report.kernel.service_calls = std::uint64_t{1} << 33;
  pcore::TaskSnapshot task;
  task.id = 7;
  task.state = pcore::TaskState::kBlocked;
  task.priority = 200;
  task.program = "lock-hold";
  task.waiting_on = 3;
  task.holds = {0, 11};
  report.kernel.tasks.push_back(task);
  report.state_records = "CP0= (failed, blocked, TC->TS, 2, -)\n";
  report.trace_tail = "1099511627779 [fault] kernel panic: gc\n";
  report.seed = std::numeric_limits<std::uint64_t>::max();
  report.merged.elements = {{0, s.tc}, {1, s.tc}, {0, s.ts}};
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
  EXPECT_EQ(report.signature(), reference_signature(report));

  report.trace_tail.clear();
  report.culprits.clear();
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
}

}  // namespace
}  // namespace ptest::core
