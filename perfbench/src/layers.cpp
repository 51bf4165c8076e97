#include "layers.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/format.hpp"
#include "gpusim/cost_model.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {
// The modules a traced run splits time across, in table order.
const char* const kLayers[] = {"engine",      "core/reorder", "core/format",
                               "core/kernel", "gpusim",       "nn"};

std::string layer_key(const std::string& layer) {
  const auto slash = layer.find('/');
  return slash == std::string::npos ? layer : layer.substr(slash + 1);
}
}  // namespace

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},        {"latency_min_ms", "ms"},
      {"read_min_ms", "ms"},   {"sim_device_us", "us"},
      {"footprint_mib", "MiB"}, {"peak_rss_mib", "MiB"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"engine.request_ms.p50", "ms"},
        {"engine.request_ms.p99", "ms"},
        {"engine.queue_wait_ms.p50", "ms"},
        {"engine.execute_ms.p50", "ms"},
        {"engine.update_ms.p50", "ms"},
        {"engine.update_ms.p99", "ms"},
        {"engine.latest_us.p50", "us"},
        {"engine.compile_ms", "ms"},
        {"engine.cache.hits", "count"},
        {"engine.cache.misses", "count"},
        {"engine.cache.evictions", "count"},
        {"engine.cache.retired", "count"},
        {"engine.submit_allocations", "count"},
        {"engine.hash_ms", "ms"},
        {"reorder.plan_ms", "ms"},
        {"reorder.replan_ms", "ms"},
        {"reorder.panels_replanned", "count"},
        {"reorder.tile_searches", "count"},
        {"reorder.evictions", "count"},
        {"reorder.memo_hit_rate", "ratio"},
        {"format.build_ms", "ms"},
        {"format.builds_per_compile", "count"},
        {"format.validate_ms", "ms"},
        {"format.rebuild_ms", "ms"},
        {"format.value_bytes", "bytes"},
        {"format.metadata_bytes", "bytes"},
        {"format.index_bytes", "bytes"},
        {"kernel.compute_ms", "ms"},
        {"kernel.cost_walk_ms", "ms"},
        {"kernel.cost_walks_per_op", "count"},
        {"kernel.run_ms", "ms"},
    };
    for (int i = 0; i < 4; ++i) {
      l.emplace_back("gpusim.sim_us." + std::to_string(i), "us");
    }
    for (int i = 0; i < 4; ++i) {
      l.emplace_back("gpusim.block_tile." + std::to_string(i), "count");
    }
    l.emplace_back("gpusim.mma_sp_ops", "count");
    l.emplace_back("gpusim.dram_bytes_computed", "bytes");
    for (const char* layer : {"fc1", "fc2", "fc3"}) {
      l.emplace_back(std::string("nn.forward_ms.") + layer, "ms");
    }
    l.emplace_back("nn.quantize_ms", "ms");
    for (const char* layer : kLayers) {
      l.emplace_back("self_ms_per_op." + layer_key(layer), "ms");
    }
    l.emplace_back("trace.overhead_ms", "ms");
    l.emplace_back("trace.overhead_pct", "%");
    for (const char* rate : {"low", "high"}) {
      const std::string p = std::string("openloop.") + rate;
      l.emplace_back(p + ".p50_ms", "ms");
      l.emplace_back(p + ".p99_ms", "ms");
      l.emplace_back(p + ".p999_ms", "ms");
      l.emplace_back(p + ".samples", "count");
      l.emplace_back(p + ".queue_wait_ms.p50", "ms");
      l.emplace_back(p + ".execute_ms.p50", "ms");
      l.emplace_back(p + ".lateness_ms.p99", "ms");
      l.emplace_back(p + ".backlog_end", "count");
    }
    l.emplace_back("openloop.max_rate_meeting_limit", "1/s");
    l.emplace_back("host.steal_pct", "%");
    return l;
  }();
  return list;
}

Threads workload_threads(const std::string& workload) {
  if (workload == "serve_ffn") return {2, 3};
  if (workload == "update_stream") return {1, 2};  // one writer, one reader
  return {0, 1};                                    // mlp_forward: one caller
}

MetricsPause::MetricsPause() : was_enabled_(jigsaw::obs::metrics_enabled()) {
  jigsaw::obs::set_metrics_enabled(false);
}

MetricsPause::~MetricsPause() {
  jigsaw::obs::set_metrics_enabled(was_enabled_);
}

double counter_value(const std::string& name) {
  return jigsaw::obs::counter(name).value();
}

double histogram_count(const std::string& name) {
  return static_cast<double>(jigsaw::obs::histogram(name).count());
}

double cost_walks_total() {
  double sum = 0.0;
  for (const auto& c : jigsaw::obs::metrics_snapshot().counters) {
    const std::string& n = c.name;
    if (n.rfind("kernel.", 0) == 0 && n.size() > 11 &&
        n.compare(n.size() - 11, 11, ".cost_walks") == 0) {
      sum += c.value;
    }
  }
  return sum;
}

PlanCounts PlanCounts::read() {
  PlanCounts c;
  c.builds = counter_value("format.builds");
  c.tile_searches = counter_value("reorder.tile_searches");
  c.evictions = counter_value("reorder.evictions");
  c.memo_hits = counter_value("reorder.cache_hits");
  c.memo_lookups = counter_value("reorder.cache_lookups");
  return c;
}

PlanCounts PlanCounts::since(const PlanCounts& before) const {
  PlanCounts d;
  d.builds = builds - before.builds;
  d.tile_searches = tile_searches - before.tile_searches;
  d.evictions = evictions - before.evictions;
  d.memo_hits = memo_hits - before.memo_hits;
  d.memo_lookups = memo_lookups - before.memo_lookups;
  return d;
}

void add_plan_counts(LayerValues& out, const PlanCounts& counts,
                     double compiles) {
  out["format.builds_per_compile"] = counts.builds / compiles;
  out["reorder.tile_searches"] = counts.tile_searches;
  out["reorder.evictions"] = counts.evictions;
  out["reorder.memo_hit_rate"] =
      counts.memo_lookups > 0 ? counts.memo_hits / counts.memo_lookups : 0.0;
}

void add_format_bytes(LayerValues& out, const jigsaw::core::JigsawFormat& f) {
  const auto fp = f.memory_footprint();
  out["format.value_bytes"] += static_cast<double>(fp.values);
  out["format.metadata_bytes"] += static_cast<double>(fp.metadata);
  out["format.index_bytes"] +=
      static_cast<double>(fp.col_idx + fp.block_col_idx + fp.headers);
}

namespace {
const std::vector<double>* durations(const SpanSummary& s,
                                     const std::string& name) {
  const auto it = s.seconds_by_name.find(name);
  return it == s.seconds_by_name.end() ? nullptr : &it->second;
}
}  // namespace

double mean_ms(const SpanSummary& s, const std::string& name) {
  const std::vector<double>* d = durations(s, name);
  if (d == nullptr || d->empty()) return 0.0;
  double sum = 0.0;
  for (double v : *d) sum += v;
  return 1e3 * sum / static_cast<double>(d->size());
}

double p50_ms(const SpanSummary& s, const std::string& name) {
  const std::vector<double>* d = durations(s, name);
  return d == nullptr ? 0.0 : 1e3 * median(*d);
}

double p99_ms(const SpanSummary& s, const std::string& name) {
  const std::vector<double>* d = durations(s, name);
  return d == nullptr ? 0.0 : 1e3 * percentile(*d, 0.99);
}

void add_self_times(LayerValues& out, const SpanSummary& window, double ops) {
  for (const char* layer : kLayers) {
    const auto it = window.self_seconds_by_layer.find(layer);
    const double self = it == window.self_seconds_by_layer.end() ? 0.0 : it->second;
    out["self_ms_per_op." + layer_key(layer)] = ops > 0 ? 1e3 * self / ops : 0.0;
  }
}

void add_gpusim(LayerValues& out, std::size_t index,
                const jigsaw::gpusim::KernelReport& report, int block_tile) {
  out["gpusim.sim_us." + std::to_string(index)] = report.duration_us;
  out["gpusim.block_tile." + std::to_string(index)] = block_tile;
  // One mma.sp.m16n8k32 issue covers 16 * 8 * 32 logical MACs.
  out["gpusim.mma_sp_ops"] += report.counters.sptc_macs / (16.0 * 8.0 * 32.0);
  out["gpusim.dram_bytes_computed"] +=
      report.counters.dram_read_bytes + report.counters.dram_write_bytes;
}

void print_layer_table(const SpanSummary& setup, const SpanSummary& window,
                       double window_ops, const LayerValues& values) {
  std::printf("\nper-layer spans: %zu recorded (replay = the layer's own "
              "public function timed again on the same inputs)\n",
              setup.spans + window.spans);
  std::printf("%-8s %-26s %7s %11s %11s %11s\n", "phase", "span", "calls",
              "mean_ms", "p50_ms", "total_ms");
  for (const auto* phase : {&setup, &window}) {
    for (const auto& [name, secs] : phase->seconds_by_name) {
      double total = 0.0;
      for (double v : secs) total += v;
      std::printf("%-8s %-26s %7zu %11.3f %11.3f %11.1f\n",
                  phase == &setup ? "set-up" : "ops", name.c_str(),
                  secs.size(), mean_ms(*phase, name), p50_ms(*phase, name),
                  1e3 * total);
    }
  }
  std::printf("\nself time by layer (span minus its children)\n");
  std::printf("%-14s %14s %16s\n", "layer", "set-up_ms", "ops_ms_per_op");
  for (const char* layer : kLayers) {
    const auto s = setup.self_seconds_by_layer.find(layer);
    const auto w = window.self_seconds_by_layer.find(layer);
    const double setup_ms =
        s == setup.self_seconds_by_layer.end() ? 0.0 : 1e3 * s->second;
    const double op_ms = w == window.self_seconds_by_layer.end() || window_ops <= 0
                             ? 0.0
                             : 1e3 * w->second / window_ops;
    std::printf("%-14s %14.2f %16.3f\n", layer, setup_ms, op_ms);
  }
  std::printf("\nper-layer metrics\n");
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    std::printf("  %-34s %16.6g %s\n", name.c_str(),
                it == values.end() ? 0.0 : it->second, unit.c_str());
  }
}

void write_trace(const std::string& path,
                 std::initializer_list<const Tracer*> tracers) {
  if (path.empty()) return;
  std::vector<Span> all;
  for (const Tracer* t : tracers) {
    for (Span& s : t->spans()) all.push_back(std::move(s));
  }
  if (!write_chrome(path, all)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("chrome trace: %s\n", path.c_str());
}

}  // namespace perfbench
