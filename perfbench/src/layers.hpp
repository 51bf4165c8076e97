// Helpers the traced runs share: reading the program's own obs counters,
// pausing them while the benchmark replays a call, and turning spans into
// per-layer figures.
#pragma once

#include <initializer_list>
#include <string>

#include "tracer.hpp"
#include "workloads.hpp"

namespace jigsaw::gpusim {
struct KernelReport;
}
namespace jigsaw::core {
class JigsawFormat;
}

namespace perfbench {

/// Turns the library's metrics registry off for the lifetime of the
/// object, so calls the benchmark replays are not counted twice.
class MetricsPause {
 public:
  MetricsPause();
  ~MetricsPause();
  MetricsPause(const MetricsPause&) = delete;
  MetricsPause& operator=(const MetricsPause&) = delete;

 private:
  bool was_enabled_;
};

double counter_value(const std::string& name);
double histogram_count(const std::string& name);
/// Sum of the per-version kernel.<v>.cost_walks counters.
double cost_walks_total();

/// The program's planner and format-build counters; a traced set-up reads
/// them before and after.
struct PlanCounts {
  double builds = 0.0;
  double tile_searches = 0.0;
  double evictions = 0.0;
  double memo_hits = 0.0;
  double memo_lookups = 0.0;
  static PlanCounts read();
  PlanCounts since(const PlanCounts& before) const;
};

/// format.builds_per_compile and the reorder counts of a traced set-up
/// that compiled `compiles` matrices.
void add_plan_counts(LayerValues& out, const PlanCounts& counts,
                     double compiles);

/// Adds one format's value, metadata and index bytes.
void add_format_bytes(LayerValues& out, const jigsaw::core::JigsawFormat& f);

/// Milliseconds: mean / median / p99 of the spans named `name`; 0 when
/// there are none.
double mean_ms(const SpanSummary& s, const std::string& name);
double p50_ms(const SpanSummary& s, const std::string& name);
double p99_ms(const SpanSummary& s, const std::string& name);

/// self_ms_per_op.<layer> for every layer of the table.
void add_self_times(LayerValues& out, const SpanSummary& window, double ops);

/// gpusim.sim_us.<i>, gpusim.block_tile.<i>; accumulates mma_sp_ops and
/// the computed DRAM bytes.
void add_gpusim(LayerValues& out, std::size_t index,
                const jigsaw::gpusim::KernelReport& report, int block_tile);

/// Prints the per-layer table of a traced run: spans, self times, counts.
void print_layer_table(const SpanSummary& setup, const SpanSummary& window,
                       double window_ops, const LayerValues& values);

/// Writes the spans of every tracer as one Chrome trace; exits on
/// failure. An empty path writes nothing.
void write_trace(const std::string& path,
                 std::initializer_list<const Tracer*> tracers);

}  // namespace perfbench
