// support::MetricsSnapshot and the metrics field table that drives its
// render, JSON codec, merge and work-field equality.  Completeness of the
// table (every member has a row) is a static_assert in metrics.hpp.
#include "ptest/support/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace ptest::support {
namespace {

/// Every counter row set to a distinct nonzero value (row index + 1,
/// scaled) and every histogram given a few samples.
MetricsSnapshot filled(std::uint64_t scale) {
  MetricsSnapshot snap;
  std::uint64_t next = 1;
  for (const CounterField& row : kCounterFields) {
    snap.*row.member = scale * next++;
  }
  for (const HistogramField& row : kHistogramFields) {
    (snap.*row.member).record(scale * next++);
    (snap.*row.member).record(0);
  }
  return snap;
}

std::string json_of(const MetricsSnapshot& snap) {
  JsonWriter out(0);
  snap.write_json(out);
  return out.str();
}

JsonValue parsed(const std::string& text) {
  auto doc = parse_json(text);
  EXPECT_TRUE(doc.ok()) << doc.error();
  return doc.ok() ? doc.value() : JsonValue{};
}

TEST(Metrics, ZeroWallTimeMeansZeroThroughput) {
  const MetricsSnapshot snap;
  EXPECT_DOUBLE_EQ(snap.sessions_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(snap.interleavings_per_sec(), 0.0);
}

TEST(Metrics, DerivedRatesFollowTheCounters) {
  MetricsSnapshot snap;
  snap.sessions = 3;
  snap.ticks = 3'000'000;
  snap.wall_ns = 2'000'000'000;  // 2 s
  snap.worker_idle_ns = 500'000'000;
  EXPECT_DOUBLE_EQ(snap.sessions_per_second(), 1.5);
  EXPECT_DOUBLE_EQ(snap.interleavings_per_sec(), 1'500'000.0);
  EXPECT_DOUBLE_EQ(snap.worker_idle_seconds(), 0.5);
}

TEST(MetricsSnapshot, RenderListsEveryWorkRowAndTheRates) {
  MetricsSnapshot snap;
  snap.sessions = 42;
  const std::string text = snap.render();
  EXPECT_NE(text.find(" 42\n"), std::string::npos) << text;
  for (const CounterField& row : kCounterFields) {
    if (row.cls != MetricClass::kWork) continue;
    EXPECT_NE(text.find(std::string("  ") + row.name + " "),
              std::string::npos)
        << "render() is missing work row " << row.name;
  }
  EXPECT_NE(text.find("sessions_per_second"), std::string::npos);
  EXPECT_NE(text.find("interleavings_per_sec"), std::string::npos);
}

TEST(MetricsSnapshot, NonWorkRowsRenderOnlyWhenNonzero) {
  MetricsSnapshot snap;
  EXPECT_EQ(snap.render().find("fleet_retries"), std::string::npos);
  EXPECT_EQ(snap.render().find("worker_idle_ns"), std::string::npos);
  EXPECT_EQ(snap.render().find("fleet_shard_imbalance"), std::string::npos);
  snap.fleet_shards = 2;
  snap.fleet_retries = 1;
  snap.worker_idle_ns = 7;
  const std::string text = snap.render();
  EXPECT_NE(text.find("fleet_retries"), std::string::npos);
  EXPECT_NE(text.find("worker_idle_ns"), std::string::npos);
  EXPECT_NE(text.find("fleet_shard_imbalance"), std::string::npos);
  // JSON always carries every row so machine consumers need no probes.
  const std::string json = json_of(MetricsSnapshot{});
  EXPECT_NE(json.find("\"fleet_retries\":0"), std::string::npos);
  EXPECT_NE(json.find("\"scratch_reuse_hits\":0"), std::string::npos);
}

TEST(MetricsSnapshot, CoverageRatesRenderWhenTracked) {
  MetricsSnapshot snap;
  EXPECT_EQ(snap.render().find("transition_coverage"), std::string::npos);
  snap.pfa_transitions = 4;
  snap.pfa_transitions_covered = 3;
  const std::string text = snap.render();
  EXPECT_NE(text.find("transition_coverage"), std::string::npos) << text;
  EXPECT_NE(text.find(" 0.750\n"), std::string::npos) << text;
}

TEST(MetricsSnapshot, WriteJsonEmitsOneObjectWithoutDerivedRows) {
  MetricsSnapshot snap;
  snap.sessions = 8;
  snap.pfa_states = 5;
  const std::string json = json_of(snap);
  const JsonValue doc = parsed(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(json.find("\"sessions\":8"), std::string::npos);
  std::size_t expected_keys = std::size(kHistogramFields);
  for (const CounterField& row : kCounterFields) {
    const bool derived = row.merge == MetricMerge::kDerived;
    expected_keys += derived ? 0 : 1;
    EXPECT_EQ(doc.find(row.name) == nullptr, derived) << row.name;
  }
  EXPECT_EQ(doc.object.size(), expected_keys);
}

TEST(MetricsSnapshot, HistogramsRenderOnlyWhenPopulated) {
  MetricsSnapshot snap;
  EXPECT_EQ(snap.render().find("ticks_hist"), std::string::npos);
  snap.ticks_hist.record(100);
  snap.ticks_hist.record(200);
  const std::string text = snap.render();
  EXPECT_NE(text.find("ticks_hist"), std::string::npos);
  EXPECT_NE(text.find("n=2"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  // JSON always carries every histogram, sparse-bucketed.
  const std::string json = json_of(snap);
  EXPECT_NE(json.find("\"ticks_hist\":[[7,1],[8,1]]"), std::string::npos);
  EXPECT_NE(json.find("\"frame_rtt_hist\":[]"), std::string::npos);
}

TEST(MetricsSnapshot, JsonRoundTripsEveryNonDerivedRow) {
  const MetricsSnapshot original = filled(1000);
  MetricsSnapshot expected = original;
  for (const CounterField& row : kCounterFields) {
    if (row.merge == MetricMerge::kDerived) expected.*row.member = 0;
  }
  MetricsSnapshot decoded;
  const auto error = decoded.read_json(parsed(json_of(original)));
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_TRUE(decoded == expected);
  EXPECT_FALSE(decoded == original);  // derived rows stayed off the JSON
}

TEST(MetricsSnapshot, ReadJsonRequiresEveryFieldAndRejectsBadValues) {
  const JsonValue good = parsed(json_of(filled(3)));
  for (const auto& [key, value] : good.object) {
    SCOPED_TRACE(key);
    JsonValue missing = good;
    missing.object.erase(std::find_if(
        missing.object.begin(), missing.object.end(),
        [&key = key](const auto& member) { return member.first == key; }));
    MetricsSnapshot snap;
    const auto error = snap.read_json(missing);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find(key), std::string::npos) << *error;
  }
  const auto rejects = [&good](const char* key, const char* replacement) {
    JsonValue doc = good;
    for (auto& member : doc.object) {
      if (member.first == key) member.second = parsed(replacement);
    }
    MetricsSnapshot snap;
    return snap.read_json(doc).has_value();
  };
  EXPECT_TRUE(rejects("sessions", "-1"));
  EXPECT_TRUE(rejects("sessions", "1.5"));
  EXPECT_TRUE(rejects("sessions", "\"7\""));
  EXPECT_TRUE(rejects("sessions", "1e20"));
  EXPECT_TRUE(rejects("ticks_hist", "[[64,1]]"));  // bucket index bound
  EXPECT_TRUE(rejects("ticks_hist", "[[1,2,3]]"));
  EXPECT_TRUE(rejects("ticks_hist", "[[1,-2]]"));
  EXPECT_TRUE(rejects("ticks_hist", "{}"));
  EXPECT_FALSE(rejects("ticks_hist", "[[63,1]]"));
  MetricsSnapshot snap;
  EXPECT_TRUE(snap.read_json(parsed("[]")).has_value());
}

TEST(MetricsSnapshot, MergeAppliesEachRowsOp) {
  const MetricsSnapshot first = filled(1);
  const MetricsSnapshot later = filled(10);
  MetricsSnapshot merged = first;
  merged.merge(later);
  for (const CounterField& row : kCounterFields) {
    SCOPED_TRACE(row.name);
    const std::uint64_t a = first.*row.member;
    const std::uint64_t b = later.*row.member;
    const std::uint64_t got = merged.*row.member;
    switch (row.merge) {
      case MetricMerge::kSum: EXPECT_EQ(got, a + b); break;
      case MetricMerge::kMax: EXPECT_EQ(got, std::max(a, b)); break;
      case MetricMerge::kMin: EXPECT_EQ(got, std::min(a, b)); break;
      case MetricMerge::kFirst:
      case MetricMerge::kDerived: EXPECT_EQ(got, a); break;
    }
  }
  for (const HistogramField& row : kHistogramFields) {
    obs::Histogram expected = first.*row.member;
    expected.merge(later.*row.member);
    EXPECT_TRUE(merged.*row.member == expected) << row.name;
  }
}

TEST(MetricsSnapshot, WorkDifferenceComparesOnlyWorkFields) {
  const MetricsSnapshot base = filled(2);
  EXPECT_EQ(work_difference(base, base), "");
  MetricsSnapshot other = base;
  for (const CounterField& row : kCounterFields) {
    if (row.cls != MetricClass::kWork) ++(other.*row.member);
  }
  other.session_wall_hist.record(5);
  EXPECT_EQ(work_difference(base, other), "");
  for (const CounterField& row : kCounterFields) {
    if (row.cls != MetricClass::kWork) continue;
    MetricsSnapshot changed = base;
    ++(changed.*row.member);
    EXPECT_EQ(work_difference(base, changed), row.name);
  }
  other.ticks_hist.record(5);
  EXPECT_EQ(work_difference(base, other), "ticks_hist");
}

}  // namespace
}  // namespace ptest::support
