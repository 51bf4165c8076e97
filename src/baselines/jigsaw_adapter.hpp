// Adapter exposing the Jigsaw kernel behind the common SpmmKernel
// interface, so benchmark drivers can iterate every implementation
// uniformly. The one-time reorder/format preprocessing runs inside run()
// but — matching the paper's Nsight methodology — is excluded from the
// reported kernel duration (it is available separately in the plan).
#pragma once

#include <string>
#include <utility>

#include "baselines/spmm_kernel.hpp"
#include "core/kernel.hpp"

namespace jigsaw::baselines {

class JigsawSpmmKernel final : public SpmmKernel {
 public:
  explicit JigsawSpmmKernel(
      core::KernelVersion version = core::KernelVersion::kV4)
      : version_(version) {}

  std::string name() const override { return "Jigsaw"; }

  SpmmResult run(const VectorSparseMatrix& a, const DenseMatrix<fp16_t>& b,
                 const gpusim::CostModel& cost_model,
                 const SpmmRunOptions& options) const override {
    core::EngineOptions::Compile po;
    po.version = version_;
    const core::JigsawPlan plan = core::jigsaw_plan(a.values(), po);
    SpmmResult result;
    if (options.compute_values) {
      core::JigsawRunResult r = core::jigsaw_run(plan, b, cost_model);
      result.c = std::move(r.c);
      result.report = std::move(r.report);
    } else {
      result.report = core::jigsaw_select(plan, b.cols(), cost_model).report;
    }
    return result;
  }

 private:
  core::KernelVersion version_;
};

}  // namespace jigsaw::baselines
