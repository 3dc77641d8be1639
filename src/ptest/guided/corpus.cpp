#include "ptest/guided/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ptest/support/json.hpp"

namespace ptest::guided {

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

/// One [state, symbol] pair; nullopt on any shape or range violation.
std::optional<std::pair<std::uint32_t, pfa::SymbolId>> as_transition(
    const support::JsonValue& entry) {
  if (!entry.is_array() || entry.array.size() != 2) return std::nullopt;
  const auto state = as_count(&entry.array[0]);
  const auto symbol = as_count(&entry.array[1]);
  if (!state || !symbol || *state > ~std::uint32_t{0} ||
      *symbol > ~std::uint32_t{0}) {
    return std::nullopt;
  }
  return std::pair{static_cast<std::uint32_t>(*state),
                   static_cast<pfa::SymbolId>(*symbol)};
}

}  // namespace

std::optional<std::string> CoverageCorpus::insert_span(SessionSpan span) {
  if (span.sessions == 0) return std::nullopt;
  std::vector<SessionSpan> kept;
  kept.reserve(spans_.size() + 1);
  for (const SessionSpan& existing : spans_) {
    if (span.end() <= existing.base || span.base >= existing.end()) {
      kept.push_back(existing);  // disjoint
      continue;
    }
    if (span == existing) return std::nullopt;  // idempotent re-report
    if (span.base == existing.base && span.end() == existing.end()) {
      return std::string(
          "corpus: one session span reported with two detection counts");
    }
    if (span.base >= existing.base && span.end() <= existing.end()) {
      // Contained: the coarser existing record already accounts for it.
      return std::nullopt;
    }
    if (existing.base >= span.base && existing.end() <= span.end()) {
      continue;  // superseded by the coarser incoming span; drop it
    }
    return std::string("corpus: session spans overlap partially");
  }
  kept.push_back(span);
  std::sort(kept.begin(), kept.end(),
            [](const SessionSpan& a, const SessionSpan& b) {
              return a.base < b.base;
            });
  // Coalesce contiguous intervals so shard spans merge into the exact
  // span the uninterrupted run records (the canonical form to_json
  // round-trips).
  spans_.clear();
  for (const SessionSpan& entry : kept) {
    if (!spans_.empty() && spans_.back().end() == entry.base) {
      spans_.back().sessions += entry.sessions;
      spans_.back().detections += entry.detections;
    } else {
      spans_.push_back(entry);
    }
  }
  return std::nullopt;
}

void CoverageCorpus::recompute_totals() {
  sessions_ = 0;
  detections_ = 0;
  for (const EpochRecord& epoch : epochs_) {
    sessions_ += epoch.sessions;
    detections_ += epoch.detections;
  }
  for (const SessionSpan& span : spans_) {
    sessions_ += span.sessions;
    detections_ += span.detections;
  }
}

std::optional<std::string> CoverageCorpus::add_span(
    std::uint64_t base, std::uint64_t sessions, std::uint64_t detections) {
  const std::vector<SessionSpan> saved = spans_;
  if (auto error = insert_span({base, sessions, detections})) {
    spans_ = saved;
    return error;
  }
  recompute_totals();
  return std::nullopt;
}

std::optional<std::string> CoverageCorpus::merge(const CoverageCorpus& other) {
  if (!scenario_.empty() && !other.scenario_.empty() &&
      scenario_ != other.scenario_) {
    return "corpus: cannot merge scenario '" + other.scenario_ +
           "' into '" + scenario_ + "'";
  }
  if (seed_ && other.seed_ && *seed_ != *other.seed_) {
    return std::string(
        "corpus: cannot merge corpora built under different seeds");
  }
  // Epoch histories are refinement chains: two corpora can only be
  // views of the same campaign when one history is a prefix of the
  // other, and then the longer one subsumes the shorter.
  const bool ours_shorter = epochs_.size() <= other.epochs_.size();
  const std::vector<EpochRecord>& shorter =
      ours_shorter ? epochs_ : other.epochs_;
  const std::vector<EpochRecord>& longer =
      ours_shorter ? other.epochs_ : epochs_;
  if (!std::equal(shorter.begin(), shorter.end(), longer.begin())) {
    return std::string("corpus: cannot merge divergent epoch histories");
  }

  CoverageCorpus merged = *this;
  merged.epochs_ = longer;
  for (const SessionSpan& span : other.spans_) {
    if (auto error = merged.insert_span(span)) return error;
  }
  merged.transitions_.insert(other.transitions_.begin(),
                             other.transitions_.end());
  merged.fingerprints_.insert(other.fingerprints_.begin(),
                              other.fingerprints_.end());
  if (merged.scenario_.empty()) merged.scenario_ = other.scenario_;
  if (!merged.seed_) merged.seed_ = other.seed_;
  merged.recompute_totals();
  *this = std::move(merged);
  return std::nullopt;
}

std::string CoverageCorpus::to_json() const {
  support::JsonWriter out;
  out.begin_object();
  out.key("format_version").value(kFormatVersion);
  out.key("scenario").value(scenario_);
  // Hex like the fingerprints: seeds are full-width uint64 and a JSON
  // number (a double) would silently round them.
  if (seed_) out.key("seed").value(hex64(*seed_));
  out.key("sessions").value(sessions_);
  out.key("detections").value(detections_);
  // Only fleet-shard corpora carry spans; omitting the key when empty
  // keeps guided-campaign corpus files byte-identical to format 1
  // before spans existed.
  if (!spans_.empty()) {
    out.key("spans").begin_array();
    for (const SessionSpan& span : spans_) {
      out.begin_array();
      out.value(span.base);
      out.value(span.sessions);
      out.value(span.detections);
      out.end_array();
    }
    out.end_array();
  }
  out.key("transitions").begin_array();
  for (const auto& [state, symbol] : transitions_) {
    out.begin_array();
    out.value(static_cast<std::uint64_t>(state));
    out.value(static_cast<std::uint64_t>(symbol));
    out.end_array();
  }
  out.end_array();
  out.key("fingerprints").begin_array();
  for (const std::uint64_t hash : fingerprints_) {
    out.value(hex64(hash));
  }
  out.end_array();
  out.key("epochs").begin_array();
  for (const EpochRecord& epoch : epochs_) {
    out.begin_object();
    out.key("sessions").value(epoch.sessions);
    out.key("detections").value(epoch.detections);
    out.key("transitions").begin_array();
    for (const auto& [state, symbol] : epoch.transitions) {
      out.begin_array();
      out.value(static_cast<std::uint64_t>(state));
      out.value(static_cast<std::uint64_t>(symbol));
      out.end_array();
    }
    out.end_array();
    out.key("new_fingerprints").value(epoch.new_fingerprints);
    out.key("transition_coverage").value(epoch.transition_coverage);
    out.end_object();
  }
  out.end_array();
  out.end_object();
  return out.str();
}

support::Result<CoverageCorpus, std::string> CoverageCorpus::from_json(
    std::string_view text) {
  auto parsed = support::parse_json(text);
  if (!parsed.ok()) return "corpus: " + parsed.error();
  const support::JsonValue& root = parsed.value();
  if (!root.is_object()) return std::string("corpus: document is not an object");

  const auto version = as_count(root.find("format_version"));
  if (!version) return std::string("corpus: missing format_version");
  if (*version != kFormatVersion) {
    return "corpus: format_version " + std::to_string(*version) +
           " unsupported (this build reads version " +
           std::to_string(kFormatVersion) + ")";
  }

  CoverageCorpus corpus;
  if (const support::JsonValue* scenario = root.find("scenario")) {
    if (!scenario->is_string()) return std::string("corpus: scenario must be a string");
    corpus.scenario_ = scenario->string;
  }
  if (const support::JsonValue* seed = root.find("seed")) {
    if (!seed->is_string()) {
      return std::string("corpus: seed must be a hex string");
    }
    const auto value = parse_hex64(seed->string);
    if (!value) return "corpus: bad seed '" + seed->string + "'";
    corpus.seed_ = *value;
  }

  if (const support::JsonValue* spans = root.find("spans")) {
    if (!spans->is_array()) {
      return std::string("corpus: spans must be an array");
    }
    // Strict canonical form: sorted, disjoint, already coalesced —
    // exactly what to_json writes, so loading stays a byte round-trip.
    for (const support::JsonValue& entry : spans->array) {
      if (!entry.is_array() || entry.array.size() != 3) {
        return std::string(
            "corpus: span entries must be [base, sessions, detections]");
      }
      const auto base = as_count(&entry.array[0]);
      const auto span_sessions = as_count(&entry.array[1]);
      const auto span_detections = as_count(&entry.array[2]);
      if (!base || !span_sessions || !span_detections ||
          *span_sessions == 0 ||
          *span_sessions > ~std::uint64_t{0} - *base) {
        return std::string("corpus: malformed span entry");
      }
      if (*span_detections > *span_sessions) {
        return std::string("corpus: span detections exceed its sessions");
      }
      if (!corpus.spans_.empty() &&
          *base <= corpus.spans_.back().end()) {
        return std::string("corpus: spans must be sorted and coalesced");
      }
      corpus.spans_.push_back({*base, *span_sessions, *span_detections});
    }
  }

  const support::JsonValue* transitions = root.find("transitions");
  if (transitions == nullptr || !transitions->is_array()) {
    return std::string("corpus: missing transitions array");
  }
  for (const support::JsonValue& entry : transitions->array) {
    const auto transition = as_transition(entry);
    if (!transition) {
      return std::string("corpus: transition entries must be [state, symbol]");
    }
    corpus.transitions_.insert(*transition);
  }

  const support::JsonValue* fingerprints = root.find("fingerprints");
  if (fingerprints == nullptr || !fingerprints->is_array()) {
    return std::string("corpus: missing fingerprints array");
  }
  for (const support::JsonValue& entry : fingerprints->array) {
    if (!entry.is_string()) {
      return std::string("corpus: fingerprints must be hex strings");
    }
    const auto hash = parse_hex64(entry.string);
    if (!hash) return "corpus: bad fingerprint '" + entry.string + "'";
    corpus.fingerprints_.insert(*hash);
  }

  const support::JsonValue* epochs = root.find("epochs");
  if (epochs == nullptr || !epochs->is_array()) {
    return std::string("corpus: missing epochs array");
  }
  std::set<Transition> seen_in_epochs;
  for (const support::JsonValue& entry : epochs->array) {
    if (!entry.is_object()) return std::string("corpus: epochs must be objects");
    EpochRecord record;
    const auto sessions = as_count(entry.find("sessions"));
    const auto detections = as_count(entry.find("detections"));
    const auto new_fingerprints = as_count(entry.find("new_fingerprints"));
    const support::JsonValue* epoch_transitions = entry.find("transitions");
    const support::JsonValue* coverage = entry.find("transition_coverage");
    if (!sessions || !detections || !new_fingerprints ||
        epoch_transitions == nullptr || !epoch_transitions->is_array() ||
        coverage == nullptr || !coverage->is_number()) {
      return std::string("corpus: malformed epoch record");
    }
    record.sessions = *sessions;
    record.detections = *detections;
    record.new_fingerprints = *new_fingerprints;
    record.transition_coverage = coverage->number;
    for (const support::JsonValue& item : epoch_transitions->array) {
      const auto transition = as_transition(item);
      if (!transition) {
        return std::string(
            "corpus: epoch transition entries must be [state, symbol]");
      }
      // Each transition is "first covered" in exactly one epoch, and the
      // flat set is the union of the epoch lists plus any entries added
      // outside an epoch — a file violating either would replay a
      // different refinement chain than the one that produced it.
      if (!seen_in_epochs.insert(*transition).second) {
        return std::string("corpus: transition repeated across epochs");
      }
      if (!corpus.transitions_.contains(*transition)) {
        return std::string(
            "corpus: epoch transition missing from the covered set");
      }
      record.transitions.push_back(*transition);
    }
    corpus.add_epoch(record);
  }
  // The totals re-derive from the epoch and span records; the stored
  // ones double-check them so a hand-edited file that disagrees with
  // its own records is rejected.
  corpus.recompute_totals();
  const auto sessions = as_count(root.find("sessions"));
  const auto detections = as_count(root.find("detections"));
  if (!sessions || !detections) {
    return std::string("corpus: missing sessions/detections totals");
  }
  if (*sessions != corpus.sessions_ || *detections != corpus.detections_) {
    return std::string("corpus: totals disagree with the epoch records");
  }
  return corpus;
}

support::Result<CoverageCorpus, std::string> CoverageCorpus::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "corpus: cannot read '" + path + "'";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto result = from_json(buffer.str());
  if (!result.ok()) return result.error() + " (" + path + ")";
  return result;
}

std::optional<std::string> CoverageCorpus::save(
    const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return "corpus: cannot write '" + path + "'";
  out << to_json() << '\n';
  out.flush();
  if (!out.good()) return "corpus: write to '" + path + "' failed";
  return std::nullopt;
}

}  // namespace ptest::guided
