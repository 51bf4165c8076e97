// Roofline-analysis tests: peaks, ridge points, bound classification, and
// the expected placement of the library's kernels.
#include "gpusim/roofline.hpp"

#include <gtest/gtest.h>

#include "baselines/dense_gemm.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"

namespace jigsaw::gpusim {
namespace {

TEST(Roofline, PeaksMatchDatasheet) {
  // A100: 312 TFLOPS dense fp16, 624 sparse, 78 fp16-CUDA.
  EXPECT_NEAR(peak_gflops(a100(), ComputePipe::kTensorCoreFp16) / 1e3, 312,
              1.0);
  EXPECT_NEAR(peak_gflops(a100(), ComputePipe::kSparseTensorCore) / 1e3, 624,
              2.0);
  EXPECT_NEAR(peak_gflops(a100(), ComputePipe::kCudaFp16) / 1e3, 78, 0.5);
}

TEST(Roofline, RidgeIntensity) {
  // 312 TFLOPS / 1555 GB/s ~ 200 FLOP/B.
  EXPECT_NEAR(ridge_intensity(a100(), ComputePipe::kTensorCoreFp16), 200.6,
              1.0);
  EXPECT_GT(ridge_intensity(a100(), ComputePipe::kSparseTensorCore),
            ridge_intensity(a100(), ComputePipe::kTensorCoreFp16));
}

TEST(Roofline, SyntheticBoundClassification) {
  KernelReport r;
  r.counters.tc_fp16_macs = 1e9;
  r.counters.dram_read_bytes = 1e9;  // intensity 2: deeply memory-bound
  r.duration_us = 1000.0;
  const auto p = roofline_point(r, a100(), ComputePipe::kTensorCoreFp16);
  EXPECT_TRUE(p.memory_bound);
  EXPECT_NEAR(p.intensity, 2.0, 1e-9);
  EXPECT_NEAR(p.attainable_gflops, 2.0 * 1555.0, 1.0);

  KernelReport c;
  c.counters.tc_fp16_macs = 1e12;
  c.counters.dram_read_bytes = 1e6;  // intensity 2e6: compute-bound
  c.duration_us = 1000.0;
  const auto q = roofline_point(c, a100(), ComputePipe::kTensorCoreFp16);
  EXPECT_FALSE(q.memory_bound);
  EXPECT_NEAR(q.attainable_gflops / 1e3, 312, 1.0);
}

TEST(Roofline, EfficiencyNeverExceedsOneForModeledKernels) {
  gpusim::CostModel cm;
  const auto dense = baselines::DenseGemmKernel::cost(1024, 1024, 1024, cm);
  const auto p =
      roofline_point(dense, a100(), ComputePipe::kTensorCoreFp16);
  EXPECT_GT(p.efficiency, 0.05);
  EXPECT_LE(p.efficiency, 1.0 + 1e-9);
}

TEST(Roofline, JigsawSlidesMemoryBoundWithSparsity) {
  // Rising sparsity removes FLOPs but B/C traffic persists: intensity must
  // fall monotonically, pushing the kernel left on the roofline.
  gpusim::CostModel cm;
  double prev = 1e300;
  for (const double s : {0.80, 0.90, 0.98}) {
    const auto a = dlmc::make_lhs({512, 512}, s, 8);
    const auto plan = core::jigsaw_plan(a.values(), {});
    const auto sel = core::jigsaw_select(plan, 256, cm);
    const auto p =
        roofline_point(sel.report, a100(), ComputePipe::kSparseTensorCore);
    EXPECT_LT(p.intensity, prev) << s;
    prev = p.intensity;
    if (s >= 0.90) {
      EXPECT_TRUE(p.memory_bound) << s;
    }
  }
}

TEST(Roofline, SummaryIsHumanReadable) {
  KernelReport r;
  r.counters.tc_fp16_macs = 1e9;
  r.counters.dram_read_bytes = 1e9;
  r.duration_us = 1000.0;
  const auto s =
      roofline_point(r, a100(), ComputePipe::kTensorCoreFp16).summary();
  EXPECT_NE(s.find("memory-bound"), std::string::npos);
  EXPECT_NE(s.find("FLOP/B"), std::string::npos);
}

TEST(Roofline, RejectsTrafficFreeReport) {
  KernelReport r;
  r.counters.tc_fp16_macs = 1e9;
  EXPECT_THROW(roofline_point(r, a100(), ComputePipe::kTensorCoreFp16),
               Error);
}

}  // namespace
}  // namespace jigsaw::gpusim
