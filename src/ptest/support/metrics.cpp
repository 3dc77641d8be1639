#include "ptest/support/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace ptest::support {

std::string MetricsSnapshot::render() const {
  char buffer[256];
  std::string out = "metrics:\n";
  for (const CounterField& row : kCounterFields) {
    const std::uint64_t value = this->*row.member;
    if (value == 0 && row.cls != MetricClass::kWork) continue;
    std::snprintf(buffer, sizeof(buffer), "  %-24s %llu\n", row.name,
                  static_cast<unsigned long long>(value));
    out += buffer;
  }
  for (const HistogramField& row : kHistogramFields) {
    const obs::Histogram& hist = this->*row.member;
    if (hist.empty()) continue;
    std::snprintf(buffer, sizeof(buffer),
                  "  %-24s n=%llu p50=%llu p95=%llu p99=%llu\n", row.name,
                  static_cast<unsigned long long>(hist.count()),
                  static_cast<unsigned long long>(hist.p50()),
                  static_cast<unsigned long long>(hist.p95()),
                  static_cast<unsigned long long>(hist.p99()));
    out += buffer;
  }
  const auto rate = [&](const char* name, int precision, double value) {
    std::snprintf(buffer, sizeof(buffer), "  %-24s %.*f\n", name, precision,
                  value);
    out += buffer;
  };
  if (pfa_states != 0 || pfa_transitions != 0) {
    rate("state_coverage", 3, state_coverage());
    rate("transition_coverage", 3, transition_coverage());
  }
  if (fleet_shards != 0) {
    rate("fleet_shard_imbalance", 2, fleet_shard_imbalance());
  }
  rate("sessions_per_second", 1, sessions_per_second());
  rate("interleavings_per_sec", 1, interleavings_per_sec());
  return out;
}

void MetricsSnapshot::write_json(JsonWriter& out) const {
  out.begin_object();
  for (const CounterField& row : kCounterFields) {
    if (row.merge == MetricMerge::kDerived) continue;
    out.key(row.name).value(this->*row.member);
  }
  // The bucket layout is fixed (obs::Histogram::kBuckets), so sparse
  // pairs reconstruct the exact bucket array and the merge algebra
  // survives the round trip.
  for (const HistogramField& row : kHistogramFields) {
    const obs::Histogram& hist = this->*row.member;
    out.key(row.name).begin_array();
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      if (hist.bucket(i) == 0) continue;
      out.begin_array();
      out.value(static_cast<std::uint64_t>(i));
      out.value(hist.bucket(i));
      out.end_array();
    }
    out.end_array();
  }
  out.end_object();
}

std::optional<std::string> MetricsSnapshot::read_json(const JsonValue& node) {
  if (!node.is_object()) return std::string("metrics: not an object");
  for (const CounterField& row : kCounterFields) {
    if (row.merge == MetricMerge::kDerived) continue;
    const auto value = as_count(node.find(row.name));
    if (!value) return std::string("metrics: bad or missing ") + row.name;
    this->*row.member = *value;
  }
  for (const HistogramField& row : kHistogramFields) {
    const JsonValue* pairs = node.find(row.name);
    if (pairs == nullptr || !pairs->is_array()) {
      return std::string("metrics: bad or missing ") + row.name;
    }
    obs::Histogram& hist = this->*row.member;
    hist.reset();
    for (const JsonValue& entry : pairs->array) {
      if (!entry.is_array() || entry.array.size() != 2) {
        return std::string("metrics: bad bucket in ") + row.name;
      }
      const auto index = as_count(&entry.array[0]);
      const auto count = as_count(&entry.array[1]);
      if (!index || *index >= obs::Histogram::kBuckets || !count) {
        return std::string("metrics: bad bucket in ") + row.name;
      }
      hist.add_bucket(static_cast<std::size_t>(*index), *count);
    }
  }
  return std::nullopt;
}

void MetricsSnapshot::merge(const MetricsSnapshot& later) {
  for (const CounterField& row : kCounterFields) {
    std::uint64_t& into = this->*row.member;
    const std::uint64_t from = later.*row.member;
    switch (row.merge) {
      case MetricMerge::kSum: into += from; break;
      case MetricMerge::kMax: into = std::max(into, from); break;
      case MetricMerge::kMin: into = std::min(into, from); break;
      case MetricMerge::kFirst:
      case MetricMerge::kDerived: break;
    }
  }
  for (const HistogramField& row : kHistogramFields) {
    (this->*row.member).merge(later.*row.member);
  }
}

std::string_view work_difference(const MetricsSnapshot& a,
                                 const MetricsSnapshot& b) {
  for (const CounterField& row : kCounterFields) {
    if (row.cls == MetricClass::kWork && a.*row.member != b.*row.member) {
      return row.name;
    }
  }
  for (const HistogramField& row : kHistogramFields) {
    if (row.cls == MetricClass::kWork && !(a.*row.member == b.*row.member)) {
      return row.name;
    }
  }
  return {};
}

}  // namespace ptest::support
