// The three workloads and the per-layer metric table they fill.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Untraced set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Per-layer figures of a traced run, keyed by the names of
/// per_layer_metrics(); names a workload does not reach stay 0.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric with its unit, in print order. The traced run
/// of every workload prints all of them.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The end-to-end metrics with their units, in print order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

/// Thread counts a workload runs with (printed in the host record and
/// checked against /proc/self/task).
struct Threads {
  int engine_workers = 0;
  int client_threads = 0;
};
Threads workload_threads(const std::string& workload);

RunResult run_serve_ffn(const RunConfig& config);
RunResult run_update_stream(const RunConfig& config);
RunResult run_mlp_forward(const RunConfig& config);

}  // namespace perfbench
