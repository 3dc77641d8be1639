#include "ptest/fleet/wire.hpp"

#include <utility>
#include <vector>

#include "ptest/support/json.hpp"
#include "ptest/support/strings.hpp"

namespace ptest::fleet {

namespace {

using support::as_count;
using support::hex64;
using support::parse_hex64;

std::optional<std::string> as_string(const support::JsonValue* value) {
  if (value == nullptr || !value->is_string()) return std::nullopt;
  return value->string;
}

void write_transition_array(
    support::JsonWriter& out,
    const std::set<std::pair<std::uint32_t, pfa::SymbolId>>& transitions) {
  out.begin_array();
  for (const auto& [state, symbol] : transitions) {
    out.begin_array();
    out.value(static_cast<std::uint64_t>(state));
    out.value(static_cast<std::uint64_t>(symbol));
    out.end_array();
  }
  out.end_array();
}

void write_count_array(support::JsonWriter& out, const auto& values) {
  out.begin_array();
  for (const auto value : values) out.value(static_cast<std::uint64_t>(value));
  out.end_array();
}

void write_failure(support::JsonWriter& out, const core::BugReport& report) {
  const pcore::KernelSnapshot& kernel = report.kernel;
  out.begin_object();
  out.key("kind").value(static_cast<std::uint64_t>(report.kind));
  out.key("detected_at").value(report.detected_at);
  out.key("description").value(report.description);
  out.key("culprits");
  write_count_array(out, report.culprits);
  out.key("panicked").value(kernel.panicked);
  out.key("panic_reason").value(kernel.panic_reason);
  out.key("live_tasks").value(static_cast<std::uint64_t>(kernel.live_tasks));
  out.key("service_calls").value(kernel.service_calls);
  // Each task as [id, state, priority, program, [waiting_on?], [holds]].
  out.key("tasks").begin_array();
  for (const pcore::TaskSnapshot& task : kernel.tasks) {
    out.begin_array();
    out.value(static_cast<std::uint64_t>(task.id));
    out.value(static_cast<std::uint64_t>(task.state));
    out.value(static_cast<std::uint64_t>(task.priority));
    out.value(task.program);
    out.begin_array();
    if (task.waiting_on) {
      out.value(static_cast<std::uint64_t>(*task.waiting_on));
    }
    out.end_array();
    write_count_array(out, task.holds);
    out.end_array();
  }
  out.end_array();
  // Each CP record as [slot, qm, qs, sn, [tp]].
  out.key("state_records").begin_array();
  for (const auto& [slot, cp] : report.state_records) {
    out.begin_array();
    out.value(static_cast<std::uint64_t>(slot));
    out.value(static_cast<std::uint64_t>(cp.qm));
    out.value(static_cast<std::uint64_t>(cp.qs));
    out.value(static_cast<std::uint64_t>(cp.sn));
    write_count_array(out, cp.tp);
    out.end_array();
  }
  out.end_array();
  // Each trace event as [tick, category, code, a, b, text].
  out.key("trace_tail").begin_array();
  for (const sim::TraceEvent& event : report.trace_tail) {
    out.begin_array();
    out.value(event.tick);
    out.value(static_cast<std::uint64_t>(event.category));
    out.value(static_cast<std::uint64_t>(event.code));
    out.value(static_cast<std::uint64_t>(event.a));
    out.value(static_cast<std::uint64_t>(event.b));
    out.value(event.text);
    out.end_array();
  }
  out.end_array();
  out.key("seed").value(hex64(report.seed));
  out.key("merged").begin_array();
  for (const pattern::MergedElement& element : report.merged.elements) {
    out.begin_array();
    out.value(static_cast<std::uint64_t>(element.slot));
    out.value(static_cast<std::uint64_t>(element.symbol));
    out.end_array();
  }
  out.end_array();
  out.end_object();
}

void write_coverage_state(support::JsonWriter& out,
                          const pattern::CoverageState& state) {
  out.begin_object();
  out.key("states_total").value(static_cast<std::uint64_t>(state.states_total));
  out.key("transitions_total")
      .value(static_cast<std::uint64_t>(state.transitions_total));
  out.key("states").begin_array();
  for (const std::uint32_t s : state.states) {
    out.value(static_cast<std::uint64_t>(s));
  }
  out.end_array();
  out.key("transitions");
  write_transition_array(out, state.transitions);
  out.key("ngrams").begin_array();
  for (const std::vector<pfa::SymbolId>& ngram : state.ngrams) {
    out.begin_array();
    for (const pfa::SymbolId symbol : ngram) {
      out.value(static_cast<std::uint64_t>(symbol));
    }
    out.end_array();
  }
  out.end_array();
  out.end_object();
}

// --- decode helpers --------------------------------------------------------

bool read_transition(const support::JsonValue& entry,
                     std::pair<std::uint32_t, pfa::SymbolId>& out) {
  if (!entry.is_array() || entry.array.size() != 2) return false;
  const auto state = as_count(&entry.array[0]);
  const auto symbol = as_count(&entry.array[1]);
  if (!state || !symbol || *state > ~std::uint32_t{0} ||
      *symbol > ~std::uint32_t{0}) {
    return false;
  }
  out = {static_cast<std::uint32_t>(*state),
         static_cast<pfa::SymbolId>(*symbol)};
  return true;
}

/// `value` as a count no larger than `max`; nullopt otherwise.
std::optional<std::uint64_t> as_count_upto(const support::JsonValue* value,
                                           std::uint64_t max) {
  const auto count = as_count(value);
  if (!count || *count > max) return std::nullopt;
  return count;
}

/// Reads an array of counts no larger than `max` into `out`.
template <typename T>
bool read_count_array(const support::JsonValue& node, std::uint64_t max,
                      std::vector<T>& out) {
  if (!node.is_array()) return false;
  for (const support::JsonValue& entry : node.array) {
    const auto value = as_count_upto(&entry, max);
    if (!value) return false;
    out.push_back(static_cast<T>(*value));
  }
  return true;
}

bool read_task(const support::JsonValue& node, pcore::TaskSnapshot& task) {
  if (!node.is_array() || node.array.size() != 6) return false;
  const std::vector<support::JsonValue>& f = node.array;
  const auto id = as_count_upto(&f[0], 0xff);
  const auto state = as_count_upto(
      &f[1], static_cast<std::uint64_t>(pcore::TaskState::kTerminated));
  const auto priority = as_count_upto(&f[2], 0xff);
  const auto program = as_string(&f[3]);
  std::vector<pcore::MutexId> waiting_on;
  if (!id || !state || !priority || !program ||
      !read_count_array(f[4], 0xff, waiting_on) || waiting_on.size() > 1 ||
      !read_count_array(f[5], 0xff, task.holds)) {
    return false;
  }
  task.id = static_cast<pcore::TaskId>(*id);
  task.state = static_cast<pcore::TaskState>(*state);
  task.priority = static_cast<pcore::Priority>(*priority);
  task.program = *program;
  if (!waiting_on.empty()) task.waiting_on = waiting_on.front();
  return true;
}

bool read_cp_record(const support::JsonValue& node, pattern::SlotIndex& slot,
                    core::CpRecord& cp) {
  if (!node.is_array() || node.array.size() != 5) return false;
  const std::vector<support::JsonValue>& f = node.array;
  const auto index = as_count_upto(&f[0], ~std::uint32_t{0});
  const auto qm = as_count_upto(
      &f[1], static_cast<std::uint64_t>(core::MasterState::kDone));
  const auto qs = as_count_upto(
      &f[2], static_cast<std::uint64_t>(core::SlaveState::kTerminated));
  const auto sn = as_count(&f[3]);
  if (!index || !qm || !qs || !sn ||
      !read_count_array(f[4], ~std::uint32_t{0}, cp.tp) ||
      *sn > cp.tp.size()) {
    return false;
  }
  slot = static_cast<pattern::SlotIndex>(*index);
  cp.qm = static_cast<core::MasterState>(*qm);
  cp.qs = static_cast<core::SlaveState>(*qs);
  cp.sn = static_cast<std::size_t>(*sn);
  return true;
}

bool read_trace_event(const support::JsonValue& node, sim::TraceEvent& event) {
  if (!node.is_array() || node.array.size() != 6) return false;
  const std::vector<support::JsonValue>& f = node.array;
  const auto tick = as_count(&f[0]);
  const auto category = as_count_upto(&f[1], sim::kTraceCategoryCount - 1);
  const auto code = as_count_upto(&f[2], sim::kTraceCodeCount - 1);
  const auto a = as_count_upto(&f[3], ~std::uint32_t{0});
  const auto b = as_count_upto(&f[4], ~std::uint32_t{0});
  const auto text = as_string(&f[5]);
  if (!tick || !category || !code || !a || !b || !text) return false;
  event.tick = *tick;
  event.category = static_cast<sim::TraceCategory>(*category);
  event.code = static_cast<sim::TraceCode>(*code);
  event.a = static_cast<std::uint32_t>(*a);
  event.b = static_cast<std::uint32_t>(*b);
  event.text = *text;
  return true;
}

std::optional<std::string> read_failure(const support::JsonValue& node,
                                        core::BugReport& report) {
  if (!node.is_object()) return std::string("wire: failure must be an object");
  const auto kind = as_count_upto(
      node.find("kind"), static_cast<std::uint64_t>(core::kBugKindCount - 1));
  const auto detected_at = as_count(node.find("detected_at"));
  const auto description = as_string(node.find("description"));
  const auto panic_reason = as_string(node.find("panic_reason"));
  const auto live_tasks = as_count(node.find("live_tasks"));
  const auto service_calls = as_count(node.find("service_calls"));
  const auto seed_text = as_string(node.find("seed"));
  const support::JsonValue* panicked = node.find("panicked");
  const support::JsonValue* culprits = node.find("culprits");
  const support::JsonValue* tasks = node.find("tasks");
  const support::JsonValue* state_records = node.find("state_records");
  const support::JsonValue* trace_tail = node.find("trace_tail");
  const support::JsonValue* merged = node.find("merged");
  if (!kind || !detected_at || !description || !panic_reason ||
      !live_tasks || !service_calls || !seed_text || panicked == nullptr ||
      panicked->kind != support::JsonValue::Kind::kBool ||
      culprits == nullptr || tasks == nullptr || !tasks->is_array() ||
      state_records == nullptr || !state_records->is_array() ||
      trace_tail == nullptr || !trace_tail->is_array() || merged == nullptr ||
      !merged->is_array()) {
    return std::string("wire: malformed failure record");
  }
  const auto seed = parse_hex64(*seed_text);
  if (!seed) return std::string("wire: bad failure seed");
  report.kind = static_cast<core::BugKind>(*kind);
  report.detected_at = *detected_at;
  report.description = *description;
  report.kernel.panicked = panicked->boolean;
  report.kernel.panic_reason = *panic_reason;
  report.kernel.live_tasks = static_cast<std::size_t>(*live_tasks);
  report.kernel.service_calls = *service_calls;
  report.seed = *seed;
  if (!read_count_array(*culprits, 0xff, report.culprits)) {
    return std::string("wire: bad failure culprit");
  }
  for (const support::JsonValue& entry : tasks->array) {
    if (!read_task(entry, report.kernel.tasks.emplace_back())) {
      return std::string("wire: bad failure task");
    }
  }
  for (const support::JsonValue& entry : state_records->array) {
    auto& [slot, cp] = report.state_records.emplace_back();
    if (!read_cp_record(entry, slot, cp)) {
      return std::string("wire: bad failure state record");
    }
  }
  for (const support::JsonValue& entry : trace_tail->array) {
    if (!read_trace_event(entry, report.trace_tail.emplace_back())) {
      return std::string("wire: bad failure trace event");
    }
  }
  for (const support::JsonValue& entry : merged->array) {
    std::pair<std::uint32_t, pfa::SymbolId> element;
    if (!read_transition(entry, element)) {
      return std::string("wire: bad merged element");
    }
    report.merged.elements.push_back({element.first, element.second});
  }
  return std::nullopt;
}

std::optional<std::string> read_coverage_state(
    const support::JsonValue& node, pattern::CoverageState& state) {
  if (!node.is_object()) {
    return std::string("wire: coverage state must be an object");
  }
  const auto states_total = as_count(node.find("states_total"));
  const auto transitions_total = as_count(node.find("transitions_total"));
  const support::JsonValue* states = node.find("states");
  const support::JsonValue* transitions = node.find("transitions");
  const support::JsonValue* ngrams = node.find("ngrams");
  if (!states_total || !transitions_total || states == nullptr ||
      !states->is_array() || transitions == nullptr ||
      !transitions->is_array() || ngrams == nullptr || !ngrams->is_array()) {
    return std::string("wire: malformed coverage state");
  }
  state.states_total = static_cast<std::size_t>(*states_total);
  state.transitions_total = static_cast<std::size_t>(*transitions_total);
  for (const support::JsonValue& entry : states->array) {
    const auto value = as_count(&entry);
    if (!value || *value > ~std::uint32_t{0}) {
      return std::string("wire: bad coverage state id");
    }
    state.states.insert(static_cast<std::uint32_t>(*value));
  }
  for (const support::JsonValue& entry : transitions->array) {
    std::pair<std::uint32_t, pfa::SymbolId> transition;
    if (!read_transition(entry, transition)) {
      return std::string("wire: bad coverage transition");
    }
    state.transitions.insert(transition);
  }
  for (const support::JsonValue& entry : ngrams->array) {
    if (!entry.is_array()) return std::string("wire: bad coverage ngram");
    std::vector<pfa::SymbolId> ngram;
    ngram.reserve(entry.array.size());
    for (const support::JsonValue& item : entry.array) {
      const auto value = as_count(&item);
      if (!value || *value > ~std::uint32_t{0}) {
        return std::string("wire: bad coverage ngram symbol");
      }
      ngram.push_back(static_cast<pfa::SymbolId>(*value));
    }
    state.ngrams.insert(std::move(ngram));
  }
  return std::nullopt;
}

std::optional<std::string> read_campaign_result(
    const support::JsonValue* node, core::CampaignResult& result) {
  if (node == nullptr || !node->is_object()) {
    return std::string("wire: missing result object");
  }
  const support::JsonValue* arm_stats = node->find("arm_stats");
  const auto total_runs = as_count(node->find("total_runs"));
  const auto total_detections = as_count(node->find("total_detections"));
  const auto best_arm = as_count(node->find("best_arm"));
  const support::JsonValue* failures = node->find("failures");
  const support::JsonValue* coverage = node->find("coverage");
  if (arm_stats == nullptr || !arm_stats->is_array() || !total_runs ||
      !total_detections || !best_arm || failures == nullptr ||
      !failures->is_array() || coverage == nullptr || !coverage->is_array()) {
    return std::string("wire: malformed result object");
  }
  for (const support::JsonValue& entry : arm_stats->array) {
    if (!entry.is_array() || entry.array.size() != 2) {
      return std::string("wire: arm stats must be [runs, detections]");
    }
    const auto runs = as_count(&entry.array[0]);
    const auto detections = as_count(&entry.array[1]);
    if (!runs || !detections) {
      return std::string("wire: arm stats must be [runs, detections]");
    }
    result.arm_stats.push_back({static_cast<std::size_t>(*runs),
                                static_cast<std::size_t>(*detections)});
  }
  result.total_runs = static_cast<std::size_t>(*total_runs);
  result.total_detections = static_cast<std::size_t>(*total_detections);
  result.best_arm = static_cast<std::size_t>(*best_arm);
  for (const support::JsonValue& entry : failures->array) {
    core::BugReport report;
    if (auto error = read_failure(entry, report)) return error;
    result.distinct_failures.emplace(report.signature(), std::move(report));
  }
  for (const support::JsonValue& entry : coverage->array) {
    pattern::CoverageState state;
    if (auto error = read_coverage_state(entry, state)) return error;
    result.arm_coverage_state.push_back(std::move(state));
  }
  const support::JsonValue* metrics = node->find("metrics");
  if (metrics == nullptr) return std::string("wire: missing metrics object");
  if (auto error = result.metrics.read_json(*metrics)) {
    return "wire: " + *error;
  }
  // The coverage reports and pfa_* counters stay off the wire: they
  // rederive from the shipped coverage states, so they cannot drift from
  // the sets.
  result.derive_coverage();
  return std::nullopt;
}

}  // namespace

std::string encode(const AssignFrame& frame) {
  support::JsonWriter out(0);
  out.begin_object();
  out.key("wire_version").value(kWireVersion);
  out.key("kind").value("assign");
  out.key("seq").value(static_cast<std::uint64_t>(frame.seq));
  out.key("shard").value(static_cast<std::uint64_t>(frame.slice.index));
  out.key("run_base").value(static_cast<std::uint64_t>(frame.slice.run_base));
  out.key("sessions").value(static_cast<std::uint64_t>(frame.slice.sessions));
  out.key("scenario").value(frame.scenario);
  if (frame.seed) out.key("seed").value(hex64(*frame.seed));
  out.key("jobs").value(static_cast<std::uint64_t>(frame.jobs));
  if (frame.trace) out.key("trace").value(true);
  out.end_object();
  return out.str();
}

std::string encode(const ResultFrame& frame) {
  support::JsonWriter out(0);
  out.begin_object();
  out.key("wire_version").value(kWireVersion);
  out.key("kind").value("result");
  out.key("seq").value(static_cast<std::uint64_t>(frame.seq));
  out.key("shard").value(static_cast<std::uint64_t>(frame.shard));
  out.key("node").value(frame.node);
  out.key("error").value(frame.error);
  if (frame.error.empty()) {
    out.key("result").begin_object();
    out.key("arm_stats").begin_array();
    for (const core::ArmStats& stats : frame.result.arm_stats) {
      out.begin_array();
      out.value(static_cast<std::uint64_t>(stats.runs));
      out.value(static_cast<std::uint64_t>(stats.detections));
      out.end_array();
    }
    out.end_array();
    out.key("total_runs")
        .value(static_cast<std::uint64_t>(frame.result.total_runs));
    out.key("total_detections")
        .value(static_cast<std::uint64_t>(frame.result.total_detections));
    out.key("best_arm").value(static_cast<std::uint64_t>(frame.result.best_arm));
    out.key("failures").begin_array();
    for (const auto& [signature, report] : frame.result.distinct_failures) {
      (void)signature;  // rederived on decode from the report fields
      write_failure(out, report);
    }
    out.end_array();
    out.key("coverage").begin_array();
    for (const pattern::CoverageState& state :
         frame.result.arm_coverage_state) {
      write_coverage_state(out, state);
    }
    out.end_array();
    out.key("metrics");
    frame.result.metrics.write_json(out);
    out.end_object();
    out.key("corpus").value(frame.corpus_json);
  }
  out.key("wall_ns").value(frame.wall_ns);
  if (!frame.trace_json.empty()) out.key("trace").value(frame.trace_json);
  out.end_object();
  return out.str();
}

std::string encode_campaign_end() {
  support::JsonWriter out(0);
  out.begin_object();
  out.key("wire_version").value(kWireVersion);
  out.key("kind").value("campaign-end");
  out.end_object();
  return out.str();
}

std::string encode_shutdown() {
  support::JsonWriter out(0);
  out.begin_object();
  out.key("wire_version").value(kWireVersion);
  out.key("kind").value("shutdown");
  out.end_object();
  return out.str();
}

support::Result<DecodedFrame, std::string> decode(std::string_view text) {
  auto parsed = support::parse_json(text);
  if (!parsed.ok()) return "wire: " + parsed.error();
  const support::JsonValue& root = parsed.value();
  if (!root.is_object()) return std::string("wire: frame is not an object");
  const auto version = as_count(root.find("wire_version"));
  if (!version) return std::string("wire: missing wire_version");
  if (*version != kWireVersion) {
    return "wire: wire_version " + std::to_string(*version) +
           " unsupported (this build speaks version " +
           std::to_string(kWireVersion) + ")";
  }
  const auto kind = as_string(root.find("kind"));
  if (!kind) return std::string("wire: missing frame kind");

  DecodedFrame frame;
  if (*kind == "shutdown") {
    frame.kind = FrameKind::kShutdown;
    return frame;
  }
  if (*kind == "campaign-end") {
    frame.kind = FrameKind::kCampaignEnd;
    return frame;
  }
  if (*kind == "assign") {
    frame.kind = FrameKind::kAssign;
    const auto seq = as_count(root.find("seq"));
    const auto shard = as_count(root.find("shard"));
    const auto run_base = as_count(root.find("run_base"));
    const auto sessions = as_count(root.find("sessions"));
    const auto scenario = as_string(root.find("scenario"));
    const auto jobs = as_count(root.find("jobs"));
    if (!seq || *seq > ~std::uint32_t{0} || !shard || !run_base || !sessions ||
        !scenario || scenario->empty() || !jobs || *jobs == 0) {
      return std::string("wire: malformed assign frame");
    }
    frame.assign.seq = static_cast<std::uint32_t>(*seq);
    frame.assign.slice.index = static_cast<std::size_t>(*shard);
    frame.assign.slice.run_base = static_cast<std::size_t>(*run_base);
    frame.assign.slice.sessions = static_cast<std::size_t>(*sessions);
    frame.assign.scenario = *scenario;
    frame.assign.jobs = static_cast<std::size_t>(*jobs);
    if (const support::JsonValue* seed = root.find("seed")) {
      const auto seed_text = as_string(seed);
      const auto value = seed_text ? parse_hex64(*seed_text) : std::nullopt;
      if (!value) return std::string("wire: bad assign seed");
      frame.assign.seed = *value;
    }
    if (const support::JsonValue* trace = root.find("trace")) {
      if (trace->kind != support::JsonValue::Kind::kBool) {
        return std::string("wire: bad assign trace flag");
      }
      frame.assign.trace = trace->boolean;
    }
    return frame;
  }
  if (*kind == "result") {
    frame.kind = FrameKind::kResult;
    const auto seq = as_count(root.find("seq"));
    const auto shard = as_count(root.find("shard"));
    const auto node = as_string(root.find("node"));
    const auto error = as_string(root.find("error"));
    const auto wall_ns = as_count(root.find("wall_ns"));
    if (!seq || *seq > ~std::uint32_t{0} || !shard || !node || !error ||
        !wall_ns) {
      return std::string("wire: malformed result frame");
    }
    frame.result.seq = static_cast<std::uint32_t>(*seq);
    frame.result.shard = static_cast<std::size_t>(*shard);
    frame.result.node = *node;
    frame.result.error = *error;
    frame.result.wall_ns = *wall_ns;
    if (frame.result.error.empty()) {
      if (auto failure =
              read_campaign_result(root.find("result"), frame.result.result)) {
        return *failure;
      }
      const auto corpus = as_string(root.find("corpus"));
      if (!corpus) return std::string("wire: missing corpus document");
      frame.result.corpus_json = *corpus;
    }
    if (const support::JsonValue* trace = root.find("trace")) {
      const auto text = as_string(trace);
      if (!text) return std::string("wire: bad result trace document");
      frame.result.trace_json = *text;
    }
    return frame;
  }
  return "wire: unknown frame kind '" + *kind + "'";
}

}  // namespace ptest::fleet
