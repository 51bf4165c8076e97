// The checked tier's compile-time degradation step.
//
// A weight matrix whose panel exhausts the §3.2 reorder-retry is not a
// caller bug, it is a workload property. Under ExecutionPolicy::kChecked
// (the engine default) Engine::compile therefore runs checked_compile
// instead of failing: it reorders A once, and any panel that failed §4.3
// even after reorder-retry (tail splitting, or a layout grown past the
// original K) is pulled out of the SpTC path entirely and routed through
// the hybrid dense-TC / CUDA-core machinery (core/hybrid.cpp). The answer
// stays exact; the panel just runs on a different pipe, and every absorbed
// failure is counted in a DegradationReport.
//
// The step builds no SpTC format for an undegraded matrix: the engine
// builds, validates and executes the artifact's formats itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.hpp"

namespace jigsaw::core {

/// Counters of everything the checked tier absorbed instead of failing.
struct DegradationReport {
  std::size_t panels_total = 0;
  std::size_t panels_degraded = 0;  ///< reorder failed; ran on hybrid pipes
  std::size_t fallback_dense_columns = 0;  ///< degraded columns on dense TC
  std::size_t fallback_cuda_columns = 0;   ///< degraded columns on CUDA cores
  std::uint64_t reorder_evictions = 0;     ///< §3.2 retry moves (absorbed work)
  std::vector<std::string> notes;          ///< one line per recorded event

  bool degraded() const { return panels_degraded > 0; }
  void note(std::string message) { notes.push_back(std::move(message)); }
};

/// §4.3 failure of one panel: tail splitting was needed, or the layout
/// grew past the 16-aligned original K. The one predicate both the
/// degradation step and Engine::update's incremental path apply.
bool panel_failed(const PanelReorder& panel, std::size_t cols);

/// Product of the degradation step.
struct CheckedArtifact {
  /// The first-chance reorder at options.block_tile. Undegraded, it is
  /// the reorder the engine builds the artifact's formats from.
  ReorderResult reorder;
  /// Set when a panel degraded: failed panels' columns routed to the
  /// dense-TC / CUDA-core pipes, SpTC subset re-reordered under the
  /// column filter.
  std::optional<HybridPlan> hybrid;
  DegradationReport degradation;
};

/// Reorders A at options.block_tile and degrades every failed panel
/// through the hybrid routing. Arguments are the engine's to check
/// (Engine::compile); the counters are published to the metrics registry.
CheckedArtifact checked_compile(const DenseMatrix<fp16_t>& a,
                                const EngineOptions::Compile& options);

}  // namespace jigsaw::core
