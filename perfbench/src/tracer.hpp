// In-memory spans of the traced run.
//
// Spans are recorded from the benchmark's own code, around each public
// call it makes into a layer. When a layer runs inside another call (the
// kernel inside Engine::execute, the reorder inside Engine::compile), the
// traced run calls that layer's own public function again on the same
// inputs and records the result as a replayed child span; a layer's self
// time is then its span minus its children. Spans are written out as a
// Chrome trace when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for an op's root span
  std::uint64_t op = 0;      ///< the op this span belongs to
  std::string name;          ///< e.g. "engine.request", "core/kernel.compute"
  std::string layer;         ///< engine, core/reorder, core/format, ...
  double t0 = 0.0, t1 = 0.0;
  int track = 0;             ///< the benchmark thread that recorded it
  bool replay = false;       ///< timed again on the same inputs
  double seconds() const { return t1 - t0; }
};

class Tracer {
 public:
  std::uint64_t new_id() { return next_id_.fetch_add(1); }
  void record(Span span);
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes spans as Chrome trace-event JSON ("X" events, microseconds since
/// the earliest span's start).
bool write_chrome(const std::string& path, const std::vector<Span>& spans);

/// Times one call. With a null tracer it only keeps the clock, so the
/// traced and untraced runs execute the same code around each call.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string layer, std::string name,
            std::uint64_t op, std::uint64_t parent, int track,
            bool replay = false);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return span_.id; }
  double start() const { return span_.t0; }
  /// Closes the span now (the destructor then does nothing) and returns
  /// its duration in seconds.
  double close();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
};

/// Per-name durations and per-layer self time of a set of spans.
struct SpanSummary {
  std::map<std::string, std::vector<double>> seconds_by_name;
  std::map<std::string, double> self_seconds_by_layer;
  std::size_t spans = 0;
};
SpanSummary summarize(const std::vector<Span>& spans);

}  // namespace perfbench
