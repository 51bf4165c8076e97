// Metrics registry: counters, gauges, and histograms for the pipeline.
//
// Instruments are created on first use (`counter("reorder.evictions")`)
// and live for the process lifetime, so hot call sites can cache the
// returned reference in a function-local static and pay only an atomic
// add per event. When metrics are disabled (the default) every mutation
// is one relaxed atomic load and a branch; reads and registration still
// work, so instruments can be declared eagerly.
//
// Values are doubles throughout: the pipeline's quantities mix integral
// counts (cache hits, evictions) with fractional ones (bytes from the
// cost walk, stall cycles), and integers stay exact up to 2^53.
//
// Naming convention (docs/OBSERVABILITY.md): `<subsystem>.<noun>[_<unit>]`,
// e.g. `serialize.bytes_written`, `kernel.v3.smem_bank_conflicts`,
// `reorder.plan_seconds` (histogram).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace jigsaw::obs {

/// Master switch for metric mutation. Off by default.
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Flips tracing and metrics together (the common profile-command case).
void set_enabled(bool on);

/// Monotonic sum. Thread-safe; add() is a no-op while metrics are
/// disabled.
class Counter {
 public:
  void add(double delta = 1.0) {
    if (!metrics_enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-layout log-scaled histogram: geometric buckets at ratio 2^(1/4)
/// (~19% wide) covering [2^-32, 2^32), plus underflow/overflow buckets.
/// Percentile estimates return the geometric midpoint of the bucket the
/// requested rank falls in, so they are exact to one bucket width;
/// count/sum/min/max are exact.
class Histogram {
 public:
  /// Quarter-octave buckets over 64 octaves + 2 boundary buckets.
  static constexpr int kSubBucketsPerOctave = 4;
  static constexpr int kOctaves = 64;  ///< 2^-32 .. 2^32
  static constexpr int kBuckets = kOctaves * kSubBucketsPerOctave + 2;

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;
  /// p in [0, 1]; 0 when empty.
  double percentile(double p) const;
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// ---- Registry ------------------------------------------------------------

/// Returns the instrument registered under `name`, creating it on first
/// use. References stay valid for the process lifetime; a name denotes one
/// kind of instrument only (registering "x" as both a counter and a gauge
/// throws jigsaw::Error — it is a programming error).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Convenience mutators for cold call sites (one registry lookup per
/// call). Early-out before the lookup while disabled.
void add(std::string_view counter_name, double delta = 1.0);
void gauge_set(std::string_view gauge_name, double value);
void observe(std::string_view histogram_name, double value);

/// RAII stage timer: observes the seconds from construction to destruction
/// into `h`, so it covers every return path of its scope, as TraceScope
/// does for spans. It reads the clock only when metrics are on at
/// construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(h), active_(metrics_enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (active_) {
      h_.observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point start_{};
  bool active_;
};

/// Point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    double value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0, p50 = 0, p90 = 0, p99 = 0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

MetricsSnapshot metrics_snapshot();

/// Zeroes every registered instrument (registrations are kept, references
/// stay valid).
void reset_metrics();

/// Human-readable dump of the snapshot, one instrument per line. Counters
/// and gauges at zero are skipped unless `include_zero`.
void write_metrics_summary(std::ostream& os, bool include_zero = false);

}  // namespace jigsaw::obs
