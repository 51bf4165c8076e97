// Observability tier: span recording and nesting, cross-thread trace
// safety, histogram percentile accuracy, disabled-mode no-op guarantees,
// and a golden-schema check of the Chrome trace-event JSON export (parsed
// with a minimal standalone JSON reader, so a malformed export fails the
// schema test rather than only failing inside chrome://tracing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::obs {
namespace {

// ---- Minimal JSON reader (objects, arrays, strings, numbers, literals) --

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::strchr(" \t\n\r", text_[pos_])) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (c == 't' || c == 'f' || c == 'n') return parse_literal();
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      v.object.emplace(key, parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            const unsigned code = static_cast<unsigned>(
                std::stoul(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            // The exporter only emits \u00XX for control bytes.
            if (code > 0xff) throw std::runtime_error("unexpected \\u range");
            out += static_cast<char>(code);
            break;
          }
          default: throw std::runtime_error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  JsonValue parse_literal() {
    const auto take = [&](const char* word) {
      const std::size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) != 0) {
        throw std::runtime_error("bad literal");
      }
      pos_ += len;
    };
    JsonValue v;
    if (text_[pos_] == 't') {
      take("true");
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
    } else if (text_[pos_] == 'f') {
      take("false");
      v.type = JsonValue::Type::kBool;
    } else {
      take("null");
    }
    return v;
  }

  JsonValue parse_number() {
    std::size_t end = pos_;
    while (end < text_.size() &&
           std::strchr("+-0123456789.eE", text_[end]) != nullptr) {
      ++end;
    }
    if (end == pos_) throw std::runtime_error("expected number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// Every test starts from a clean, disabled observability state and leaves
/// it disabled (other test binaries assume the default-off contract).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset_metrics();
    reset_trace();
  }
  void TearDown() override {
    set_enabled(false);
    reset_metrics();
    reset_trace();
  }
};

// ---- Metrics ------------------------------------------------------------

TEST_F(ObsTest, CounterDisabledIsNoOp) {
  Counter& c = counter("obs_test.counter_disabled");
  c.add(5.0);
  add("obs_test.counter_disabled", 7.0);
  EXPECT_EQ(c.value(), 0.0);
}

TEST_F(ObsTest, CounterAccumulatesWhenEnabled) {
  set_metrics_enabled(true);
  Counter& c = counter("obs_test.counter_enabled");
  c.add();
  c.add(2.5);
  add("obs_test.counter_enabled", 0.5);
  EXPECT_DOUBLE_EQ(c.value(), 4.0);
  reset_metrics();
  EXPECT_EQ(c.value(), 0.0);
}

TEST_F(ObsTest, CounterIsThreadSafe) {
  set_metrics_enabled(true);
  Counter& c = counter("obs_test.counter_mt");
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), static_cast<double>(kThreads) * kAdds);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  set_metrics_enabled(true);
  Gauge& g = gauge("obs_test.gauge");
  g.set(3.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST_F(ObsTest, InstrumentKindConflictThrows) {
  (void)counter("obs_test.kind_conflict");
  EXPECT_THROW((void)histogram("obs_test.kind_conflict"), Error);
  EXPECT_THROW((void)gauge("obs_test.kind_conflict"), Error);
}

TEST_F(ObsTest, HistogramExactStatsAndBucketedPercentiles) {
  set_metrics_enabled(true);
  Histogram& h = histogram("obs_test.hist");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Buckets are 2^(1/4) ~ 19% wide; the midpoint estimate is within one
  // bucket (sqrt(2^(1/4)) ~ 9% each side — allow 20% for rank rounding).
  EXPECT_NEAR(h.percentile(0.50), 500.0, 0.20 * 500.0);
  EXPECT_NEAR(h.percentile(0.90), 900.0, 0.20 * 900.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 0.20 * 990.0);
  // Estimates never leave the observed range.
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(1.0), h.max());
}

TEST_F(ObsTest, HistogramSingleValueAndOutOfScaleSamples) {
  set_metrics_enabled(true);
  Histogram& h = histogram("obs_test.hist_edges");
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);

  h.reset();
  h.observe(0.0);     // non-positive -> underflow bucket
  h.observe(1e120);   // overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e120);
  EXPECT_GE(h.percentile(0.99), 0.0);
}

TEST_F(ObsTest, HistogramEmpty) {
  Histogram& h = histogram("obs_test.hist_empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST_F(ObsTest, ScopedTimerObservesOncePerScopeWhileEnabled) {
  Histogram& h = histogram("obs_test.scoped_timer");
  { const ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 0u);
  set_metrics_enabled(true);
  { const ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}

TEST_F(ObsTest, SnapshotIsSortedAndComplete) {
  set_metrics_enabled(true);
  add("obs_test.snap_b", 2.0);
  add("obs_test.snap_a", 1.0);
  observe("obs_test.snap_h", 3.0);
  const MetricsSnapshot snap = metrics_snapshot();
  bool saw_a = false, saw_b = false, saw_h = false;
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (const auto& c : snap.counters) {
    saw_a |= c.name == "obs_test.snap_a" && c.value == 1.0;
    saw_b |= c.name == "obs_test.snap_b" && c.value == 2.0;
  }
  for (const auto& h : snap.histograms) {
    saw_h |= h.name == "obs_test.snap_h" && h.count == 1;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_h);
}

// ---- Tracing ------------------------------------------------------------

TEST_F(ObsTest, SpanDisabledRecordsNothing) {
  // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
  { JIGSAW_TRACE_SCOPE("test", "disabled_span"); }
  record_span("test", "direct", 0, 1);  // direct records are unconditional
  EXPECT_EQ(trace_event_count(), 1u);
  reset_trace();
  // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
  { JIGSAW_TRACE_SCOPE("test", "disabled_span"); }
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(ObsTest, SpanNestingIsContained) {
  set_tracing_enabled(true);
  {
    // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
    JIGSAW_TRACE_SCOPE("test", "outer");
    {
      // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
      JIGSAW_TRACE_SCOPE("test", "inner");
    }
  }
  const auto events = trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: the inner span is recorded first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST_F(ObsTest, SpanStraddlingDisableStillRecords) {
  set_tracing_enabled(true);
  {
    // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
    JIGSAW_TRACE_SCOPE("test", "straddle");
    set_tracing_enabled(false);
  }
  EXPECT_EQ(trace_event_count(), 1u);
}

TEST_F(ObsTest, SpansAcrossThreadsAllSurviveWithDistinctTids) {
  set_tracing_enabled(true);
  constexpr int kThreads = 8, kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        // jigsaw-lint: allow(obs-name): synthetic test-only span names, not shipped instruments.
        JIGSAW_TRACE_SCOPE("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  // The workers have exited; their buffers must still be exportable.
  const auto events = trace_snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpans);
  std::map<std::uint32_t, int> per_tid;
  for (const TraceEvent& e : events) {
    EXPECT_STREQ(e.name, "worker_span");
    ++per_tid[e.tid];
  }
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kSpans);
  EXPECT_EQ(trace_dropped_count(), 0u);
}

TEST_F(ObsTest, ChromeTraceGoldenSchema) {
  set_tracing_enabled(true);
  record_span("catA", "span_one", 1000, 2500);
  record_span("catB", "span \"two\"\n", 5000, 1000);  // escaping stress
  std::ostringstream os;
  write_chrome_trace(os);

  const JsonValue root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  ASSERT_TRUE(root.has("displayTimeUnit"));
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");

  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_TRUE(e.has(key)) << "event missing \"" << key << '"';
    }
    EXPECT_EQ(e.at("ph").str, "X");  // complete events only
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
  }
  // ts/dur are microseconds; the spans above were recorded in ns.
  EXPECT_DOUBLE_EQ(events.array[0].at("ts").number, 1.0);
  EXPECT_DOUBLE_EQ(events.array[0].at("dur").number, 2.5);
  EXPECT_EQ(events.array[0].at("name").str, "span_one");
  // The escaped name round-trips through the parser.
  EXPECT_EQ(events.array[1].at("name").str, "span \"two\"\n");
}

TEST_F(ObsTest, EmptyTraceIsValidJson) {
  std::ostringstream os;
  write_chrome_trace(os);
  const JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("traceEvents").array.size(), 0u);
}

TEST_F(ObsTest, SetEnabledFlipsBothSwitches) {
  set_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  EXPECT_TRUE(tracing_enabled());
  set_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(tracing_enabled());
}

TEST_F(ObsTest, MetricsSummaryskipsZeroUnlessAsked) {
  set_metrics_enabled(true);
  (void)counter("obs_test.zero_counter");
  add("obs_test.nonzero_counter", 1.0);
  std::ostringstream brief, full;
  write_metrics_summary(brief, /*include_zero=*/false);
  write_metrics_summary(full, /*include_zero=*/true);
  EXPECT_EQ(brief.str().find("obs_test.zero_counter"), std::string::npos);
  EXPECT_NE(brief.str().find("obs_test.nonzero_counter"), std::string::npos);
  EXPECT_NE(full.str().find("obs_test.zero_counter"), std::string::npos);
}

}  // namespace
}  // namespace jigsaw::obs
