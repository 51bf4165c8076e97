// Architecture preset tests: preset values, lookup, and the what-if
// portability behaviour of kernels across devices.
#include "gpusim/arch.hpp"

#include <gtest/gtest.h>

#include "baselines/dense_gemm.hpp"
#include "common/error.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"

namespace jigsaw::gpusim {
namespace {

TEST(Arch, A100Defaults) {
  const ArchSpec& a = a100();
  EXPECT_EQ(a.num_sms, 108);
  EXPECT_EQ(a.schedulers_per_sm, 4);
  EXPECT_EQ(a.smem_banks, 32);
  EXPECT_EQ(a.smem_per_sm_bytes, 164u * 1024u);
  EXPECT_EQ(a.max_regs_per_thread, 256u);
  EXPECT_DOUBLE_EQ(a.sptc_speedup, 2.0);
  // 1555 GB/s at 1.41 GHz ~ 1102.8 B/cycle.
  EXPECT_NEAR(a.dram_bytes_per_cycle(), 1102.8, 0.5);
  // 312 TFLOPS fp16 = 2 * 1024 MAC * 108 SM * 1.41 GHz.
  EXPECT_NEAR(2.0 * a.tc_fp16_mac_per_cycle * a.num_sms * a.clock_ghz / 1e3,
              311.9, 0.5);
}

TEST(Arch, PresetsDiffer) {
  EXPECT_GT(a100_80g().dram_bytes_per_sec, a100().dram_bytes_per_sec);
  EXPECT_EQ(a100_80g().num_sms, a100().num_sms);
  EXPECT_GT(h100_sxm().num_sms, a100().num_sms);
  EXPECT_GT(h100_sxm().tc_fp16_mac_per_cycle, a100().tc_fp16_mac_per_cycle);
}

TEST(Arch, LookupByName) {
  EXPECT_STREQ(arch_by_name("a100").name, "A100-SXM4-40GB");
  EXPECT_STREQ(arch_by_name("A100-80G").name, "A100-SXM4-80GB");
  EXPECT_STREQ(arch_by_name("h100").name, "H100-SXM5-80GB");
  EXPECT_THROW(arch_by_name("tpu-v5"), Error);
}

TEST(Arch, CyclesToMicroseconds) {
  EXPECT_NEAR(a100().cycles_to_us(1410.0), 1.0, 1e-9);
  EXPECT_NEAR(h100_sxm().cycles_to_us(1830.0), 1.0, 1e-9);
}

TEST(Arch, FasterDeviceRunsKernelsFaster) {
  const auto a = dlmc::make_lhs({512, 512}, 0.95, 8);
  const auto plan = core::jigsaw_plan(a.values(), {});
  const CostModel on_a100{a100()};
  const CostModel on_h100{h100_sxm()};
  const auto r_a = core::jigsaw_select(plan, 256, on_a100);
  const auto r_h = core::jigsaw_select(plan, 256, on_h100);
  EXPECT_LT(r_h.report.duration_us, r_a.report.duration_us);

  const auto d_a = baselines::DenseGemmKernel::cost(512, 256, 512, on_a100);
  const auto d_h = baselines::DenseGemmKernel::cost(512, 256, 512, on_h100);
  EXPECT_LT(d_h.duration_us, d_a.duration_us);
}

}  // namespace
}  // namespace jigsaw::gpusim
