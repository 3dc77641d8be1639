#include "ptest/fleet/wire.hpp"

#include <cstdio>
#include <utility>

#include "ptest/support/json.hpp"

namespace ptest::fleet {

namespace {

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Strict hex-to-u64; nullopt on anything but exactly 1..16 hex digits.
std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

using support::as_count;

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

void write_failure(support::JsonWriter& out, const core::BugReport& report) {
  out.begin_object();
  out.key("kind").value(static_cast<std::uint64_t>(report.kind));
  out.key("detected_at").value(report.detected_at);
  out.key("description").value(report.description);
  out.key("culprits").begin_array();
  for (const pcore::TaskId task : report.culprits) {
    out.value(static_cast<std::uint64_t>(task));
  }
  out.end_array();
  out.key("panicked").value(report.kernel.panicked);
  out.key("panic_reason").value(report.kernel.panic_reason);
  out.key("state_records").value(report.state_records);
  out.key("trace_tail").value(report.trace_tail);
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

std::optional<std::string> read_failure(const support::JsonValue& node,
                                        core::BugReport& report) {
  if (!node.is_object()) return std::string("wire: failure must be an object");
  const auto kind = as_count(node.find("kind"));
  const auto detected_at = as_count(node.find("detected_at"));
  const auto description = as_string(node.find("description"));
  const auto panic_reason = as_string(node.find("panic_reason"));
  const auto state_records = as_string(node.find("state_records"));
  const auto trace_tail = as_string(node.find("trace_tail"));
  const auto seed_text = as_string(node.find("seed"));
  const support::JsonValue* panicked = node.find("panicked");
  const support::JsonValue* culprits = node.find("culprits");
  const support::JsonValue* merged = node.find("merged");
  if (!kind || *kind > static_cast<std::uint64_t>(core::BugKind::kStarvation) ||
      !detected_at || !description || !panic_reason || !state_records ||
      !trace_tail || !seed_text || panicked == nullptr ||
      panicked->kind != support::JsonValue::Kind::kBool ||
      culprits == nullptr || !culprits->is_array() || merged == nullptr ||
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
  report.state_records = *state_records;
  report.trace_tail = *trace_tail;
  report.seed = *seed;
  for (const support::JsonValue& entry : culprits->array) {
    const auto task = as_count(&entry);
    if (!task || *task > 0xff) {
      return std::string("wire: bad failure culprit");
    }
    report.culprits.push_back(static_cast<pcore::TaskId>(*task));
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
    result.arm_coverage.push_back(state.report());
    result.arm_coverage_state.push_back(std::move(state));
  }
  const support::JsonValue* metrics = node->find("metrics");
  if (metrics == nullptr) return std::string("wire: missing metrics object");
  if (auto error = result.metrics.read_json(*metrics)) {
    return "wire: " + *error;
  }
  // The pfa_* counters stay off the wire: they rederive from the shipped
  // coverage states, so they cannot drift from the sets.
  result.derive_coverage_metrics();
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
