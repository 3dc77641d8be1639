// Reference oracle for the report renderers.
//
// The reference_* functions below are the std::ostringstream renderers
// that CpRecord::render, the CP-record block, the trace-tail block,
// BugReport::signature and the detector's deadlock description replaced,
// kept verbatim, plus each trace call site's std::to_string
// concatenation as it stood before trace events became codes.  The
// production renderers must produce the same bytes: every catalog
// scenario, bug and benign variant, runs over a seed sweep, and each
// session's CP records, trace events and filed report are rendered both
// ways.  Hand-built edge cases cover what the catalog never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/reference_session.hpp"
#include "ptest/bridge/protocol.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/sim/trace.hpp"

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

/// The CP-record lines of a report, as StateRecorder::render streamed them.
std::string reference_render(
    const std::vector<std::pair<pattern::SlotIndex, CpRecord>>& records,
    const pfa::Alphabet& alphabet) {
  std::ostringstream out;
  for (const auto& [slot, cp] : records) {
    out << "CP" << slot << "= " << reference_render(cp, alphabet) << '\n';
  }
  return out.str();
}

// Each trace call site's message, verbatim, with the call site's own
// argument types.

// bridge/channel.cpp, Channel::post_command.
std::string reference_command(const bridge::Command& command) {
  return "cmd seq=" + std::to_string(command.seq) + " " +
         bridge::mnemonic(command.service) + " task=" +
         std::to_string(command.task);
}

// master/scheduler.cpp, a master thread finishing.
std::string reference_thread_done(const std::string& name) {
  return "thread '" + name + "' done";
}

// pcore/kernel.cpp, maybe_collect's panic.
std::string reference_kernel_panic(const std::string& panic_reason_) {
  return "kernel panic: " + panic_reason_;
}

// pcore/kernel.cpp, a recursive lock.
std::string reference_recursive_lock(pcore::TaskId next, std::uint32_t id) {
  return "task " + std::to_string(next) + " recursive lock of mutex " +
         std::to_string(id);
}

// pcore/kernel.cpp, a task exit.
std::string reference_task_exit(pcore::TaskId next, std::uint32_t arg) {
  return "task " + std::to_string(next) + " exited with code " +
         std::to_string(arg);
}

// core/bug_detector.cpp, BugDetector::file_report.
std::string reference_bug_detected(BugKind kind) {
  return std::string("bug detected: ") + to_string(kind);
}

/// The message the call site that records `e` used to build.
std::string reference_message(const sim::TraceEvent& e) {
  const auto code = static_cast<std::size_t>(e.code);
  if (code < bridge::kServiceCount) {
    bridge::Command command;
    command.seq = e.a;
    command.service = static_cast<bridge::Service>(code);
    command.task = static_cast<std::uint8_t>(e.b);
    return reference_command(command);
  }
  switch (e.code) {
    case sim::TraceCode::kThreadDone: return reference_thread_done(e.text);
    case sim::TraceCode::kKernelPanic: return reference_kernel_panic(e.text);
    case sim::TraceCode::kRecursiveLock:
      return reference_recursive_lock(static_cast<pcore::TaskId>(e.a), e.b);
    case sim::TraceCode::kTaskExit:
      return reference_task_exit(static_cast<pcore::TaskId>(e.a), e.b);
    default: break;
  }
  const std::size_t kind =
      code - static_cast<std::size_t>(sim::TraceCode::kBugSlaveCrash);
  return reference_bug_detected(static_cast<BugKind>(kind));
}

/// The trace-tail lines of a report, as TraceLog::render streamed them.
std::string reference_render(const std::vector<sim::TraceEvent>& events) {
  std::ostringstream out;
  for (const sim::TraceEvent& e : events) {
    out << e.tick << " [" << to_string(e.category) << "] "
        << reference_message(e) << '\n';
  }
  return out.str();
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
  out << "state records (Definition 2):\n"
      << reference_render(report.state_records, alphabet);
  out << "merged pattern: " << report.merged.render(alphabet) << '\n';
  out << "seed: " << report.seed << '\n';
  if (!report.trace_tail.empty()) {
    out << "trace tail:\n" << reference_render(report.trace_tail);
  }
  return out.str();
}

// --- catalog sweep -------------------------------------------------------------

constexpr std::uint64_t kSeedsPerVariant = 48;

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t reports = 0;
  std::set<BugKind> kinds;
  std::set<sim::TraceCode> codes;
};

/// Renders the session's CP records and trace events both ways, and,
/// when a report was filed, checks that it holds the state the detector
/// saw when it filed and renders it byte for byte as the reference does.
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

  const sim::TraceLog& trace = session.soc().trace();
  const std::vector<sim::TraceEvent> events = trace.tail(trace.size());
  ASSERT_EQ(events.size(), trace.size());
  for (const sim::TraceEvent& e : events) {
    EXPECT_EQ(e.message(), reference_message(e))
        << "code " << static_cast<int>(e.code);
    totals.codes.insert(e.code);
  }
  EXPECT_EQ([&] {
    std::string lines;
    for (const sim::TraceEvent& e : events) e.append_line(lines);
    return lines;
  }(), reference_render(events));
  const std::size_t lines = kReportTraceLines;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, lines, trace.size(),
        trace.size() + 7}) {
    const std::size_t take = std::min(count, events.size());
    EXPECT_EQ(trace.tail(count),
              std::vector<sim::TraceEvent>(events.end() - take, events.end()))
        << "count " << count;
  }

  // The same session through core::execute: the report TestSession moves
  // out must match the one rendered here field for field.
  const AdaptiveTestResult executed = execute(plan, seed, setup, scratch);
  expect_same_session(executed.session, result, alphabet);
  if (!result.report) return;
  const BugReport& report = *result.report;
  ++totals.reports;
  totals.kinds.insert(report.kind);

  // The detector is the last device and stops the run on the tick it
  // files, so the recorder still holds the filed state; the only trace
  // event after the filing is the detector's own "bug detected" line.
  EXPECT_EQ(report.state_records,
            (std::vector<std::pair<pattern::SlotIndex, CpRecord>>(
                recorder.records().begin(), recorder.records().end())));
  std::vector<sim::TraceEvent> filed = trace.tail(lines + 1);
  ASSERT_FALSE(filed.empty());
  EXPECT_EQ(filed.back().category, sim::TraceCategory::kDetector);
  EXPECT_EQ(filed.back().message(), reference_bug_detected(report.kind));
  filed.pop_back();
  EXPECT_EQ(report.trace_tail, filed);
  EXPECT_EQ(report.signature(), reference_signature(report));
  if (report.kind == BugKind::kDeadlock) {
    EXPECT_EQ(report.description,
              reference_deadlock_description(report.culprits));
  }
  EXPECT_EQ(report.seed, seed);
  EXPECT_EQ(report.render(alphabet), reference_render(report, alphabet));
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
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    sweep_variant(variant.label, variant.config, variant.setup, totals);
  });
  EXPECT_GT(totals.reports, totals.sessions / 4);
  for (const BugKind kind : {BugKind::kSlaveCrash, BugKind::kDeadlock,
                             BugKind::kNoTermination, BugKind::kStarvation}) {
    EXPECT_TRUE(totals.kinds.count(kind)) << to_string(kind);
  }
  // The catalog reaches the hot codes; the edge-case test below covers
  // every code.
  for (const sim::TraceCode code :
       {sim::TraceCode::kCommandTC, sim::TraceCode::kCommandTS,
        sim::TraceCode::kTaskExit, sim::TraceCode::kThreadDone,
        sim::TraceCode::kBugDeadlock}) {
    EXPECT_TRUE(totals.codes.count(code)) << static_cast<int>(code);
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

TEST(RenderReferenceTest, StateRecordBlockEmptyAndSparseSlots) {
  Symbols s;
  StateRecorder recorder(s.alphabet);
  BugReport report;
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
  recorder.assign(0, {});
  recorder.assign(3, {s.tc, s.td});
  recorder.assign(12, {s.tc, s.ts, s.tr, s.td});
  recorder.on_issue({1, 12, s.tc, bridge::Service::kTaskCreate, 0});
  report.state_records.assign(recorder.records().begin(),
                              recorder.records().end());
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
  EXPECT_NE(report.render(s.alphabet)
                .find("CP12= (issuing, none, TC->TS->TR->TD, 1, TS->TR->TD)"),
            std::string::npos);
}

TEST(RenderReferenceTest, EveryTraceCodeMatchesItsCallSite) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::set<sim::TraceCode> checked;
  const auto check = [&](const sim::TraceEvent& e, const std::string& want) {
    EXPECT_EQ(e.message(), want) << "code " << static_cast<int>(e.code);
    EXPECT_EQ(e.message(), reference_message(e));
    checked.insert(e.code);
  };
  sim::TraceEvent e;
  for (std::uint8_t service = 0; service < bridge::kServiceCount; ++service) {
    e.code = sim::command_code(service);
    for (const std::uint32_t seq : {0u, kMax}) {
      for (const std::uint8_t task : {std::uint8_t{0}, std::uint8_t{255}}) {
        bridge::Command command;
        command.seq = seq;
        command.service = static_cast<bridge::Service>(service);
        command.task = task;
        e.a = seq;
        e.b = task;
        check(e, reference_command(command));
      }
    }
  }
  for (const pcore::TaskId task : {pcore::TaskId{0}, pcore::TaskId{255}}) {
    for (const std::uint32_t arg : {0u, kMax}) {
      e.a = task;
      e.b = arg;
      e.code = sim::TraceCode::kTaskExit;
      check(e, reference_task_exit(task, arg));
      e.code = sim::TraceCode::kRecursiveLock;
      check(e, reference_recursive_lock(task, arg));
    }
  }
  e.a = e.b = 0;
  for (const std::string text :
       {"", "committer", "gc: corrupted header at offset 96"}) {
    e.text = text;
    e.code = sim::TraceCode::kThreadDone;
    check(e, reference_thread_done(text));
    e.code = sim::TraceCode::kKernelPanic;
    check(e, reference_kernel_panic(text));
  }
  e.text.clear();
  for (std::uint8_t kind = 0; kind < kBugKindCount; ++kind) {
    e.code = sim::bug_code(kind);
    check(e, reference_bug_detected(static_cast<BugKind>(kind)));
  }
  EXPECT_EQ(checked.size(), sim::kTraceCodeCount);
}

TEST(RenderReferenceTest, TraceTailEmptyOverlongAndWideTicks) {
  Symbols s;
  sim::TraceLog log(8);
  BugReport report;
  for (const std::size_t count : {0, 1, 5}) {
    report.trace_tail = log.tail(count);
    EXPECT_TRUE(report.trace_tail.empty());
    EXPECT_EQ(report.render(s.alphabet).find("trace tail"), std::string::npos);
  }
  log.record(0, sim::TraceCategory::kKernel, sim::TraceCode::kTaskExit, 0, 0);
  log.record(std::uint64_t{1} << 32, sim::TraceCategory::kMailbox,
             sim::TraceCode::kKernelPanic, "");
  log.record((std::uint64_t{1} << 32) + 1, sim::TraceCategory::kFault,
             sim::TraceCode::kKernelPanic, "fault injected");
  log.record(std::numeric_limits<sim::Tick>::max(),
             sim::TraceCategory::kDetector, sim::TraceCode::kBugStarvation);
  for (const std::size_t count : {0, 1, 3, 4, 5, 100}) {
    report.trace_tail = log.tail(count);
    EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet))
        << "count " << count;
  }
  report.trace_tail = log.tail(1);
  EXPECT_NE(report.render(s.alphabet)
                .find("trace tail:\n18446744073709551615 [detector] bug "
                      "detected: starvation\n"),
            std::string::npos);

  // Evicted events stay out of the rendering.
  for (std::uint32_t i = 0; i < 10; ++i) {
    log.record(static_cast<sim::Tick>(i), sim::TraceCategory::kBridge,
               sim::TraceCode::kCommandTR, i, i);
  }
  EXPECT_EQ(log.size(), 8u);
  report.trace_tail = log.tail(100);
  ASSERT_EQ(report.trace_tail.size(), 8u);
  EXPECT_EQ(report.trace_tail.front().a, 2u);
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
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
  CpRecord cp;
  cp.qm = MasterState::kFailed;
  cp.qs = SlaveState::kBlocked;
  cp.tp = {s.tc, s.ts};
  cp.sn = 2;
  report.state_records = {{0, cp}};
  sim::TraceEvent panic;
  panic.tick = 1099511627779;
  panic.category = sim::TraceCategory::kFault;
  panic.code = sim::TraceCode::kKernelPanic;
  panic.text = "gc";
  report.trace_tail = {panic};
  report.seed = std::numeric_limits<std::uint64_t>::max();
  report.merged.elements = {{0, s.tc}, {1, s.tc}, {0, s.ts}};
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
  EXPECT_NE(report.render(s.alphabet)
                .find("CP0= (failed, blocked, TC->TS, 2, -)\n"),
            std::string::npos);
  EXPECT_NE(report.render(s.alphabet)
                .find("trace tail:\n1099511627779 [fault] kernel panic: gc\n"),
            std::string::npos);
  EXPECT_EQ(report.signature(), reference_signature(report));

  report.trace_tail.clear();
  report.culprits.clear();
  EXPECT_EQ(report.render(s.alphabet), reference_render(report, s.alphabet));
}

}  // namespace
}  // namespace ptest::core
