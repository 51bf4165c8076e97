// Figure 12 + §4.4: ablation of the kernel optimizations. Kernel versions
// v0 (no bank-conflict elimination) through v4 (BLOCK_TILE tuning) run on
// the 95%-sparsity, v=8 suite; speedups are normalized to cuBLAS. Also
// reproduces the Nsight counter deltas §4.4 quotes on the M=N=K=512 case:
// bank-conflict reduction (99.48%), warp long scoreboard (1.82 -> 0.87)
// and the shared-memory instruction reduction of the metadata interleave.
#include <iostream>

#include "baselines/dense_gemm.hpp"
#include "bench_common.hpp"
#include "core/kernel.hpp"

namespace jigsaw {
namespace {

using core::KernelVersion;

void run() {
  bench::print_banner("Figure 12: kernel-optimization ablation",
                      "Jigsaw (ICPP'24) Figure 12 + §4.4");

  gpusim::CostModel cm;
  const double sparsity = 0.95;
  const std::size_t v = 8;
  const auto ns = bench::full_suite() ? dlmc::output_widths()
                                      : std::vector<std::size_t>{256, 512};
  const std::vector<KernelVersion> versions{
      KernelVersion::kV0, KernelVersion::kV1, KernelVersion::kV2,
      KernelVersion::kV3, KernelVersion::kV4};

  bench::Table table({"version", "avg speedup vs cuBLAS", "max", "paper avg"});
  const std::vector<std::string> paper{"0.89", "1.20", "1.23", "1.40", "1.82"};

  std::vector<bench::SpeedupAccumulator> accs(versions.size());
  for (const auto& shape : bench::bench_shapes()) {
    const auto a = dlmc::make_lhs(shape, sparsity, v);
    std::vector<core::JigsawPlan> plans;
    for (const auto version : versions) {
      core::EngineOptions::Compile po;
      po.version = version;
      po.block_tile = 64;  // v0..v3 only support BLOCK_TILE=64 (§4.4)
      plans.push_back(core::jigsaw_plan(a.values(), po));
    }
    for (const std::size_t n : ns) {
      const double dense =
          baselines::DenseGemmKernel::cost(shape.m, n, shape.k, cm)
              .duration_cycles;
      for (std::size_t i = 0; i < versions.size(); ++i) {
        const auto sel = core::jigsaw_select(plans[i], n, cm);
        accs[i].add("s", dense / sel.report.duration_cycles);
      }
    }
  }
  for (std::size_t i = 0; i < versions.size(); ++i) {
    table.add_row({core::to_string(versions[i]),
                   bench::fmt(accs[i].average("s")),
                   bench::fmt(accs[i].maximum("s")), paper[i]});
  }
  table.print();

  // --- §4.4 Nsight-style counter study at M = N = K = 512 ---------------
  std::cout << "\n--- counter study, M=N=K=512, 95% sparsity, v=8 ---\n";
  const dlmc::Shape probe{512, 512};
  const auto a = dlmc::make_lhs(probe, sparsity, v);
  std::vector<gpusim::KernelReport> reports;
  for (const auto version : versions) {
    core::EngineOptions::Compile po;
    po.version = version;
    po.block_tile = 64;
    const auto plan = core::jigsaw_plan(a.values(), po);
    reports.push_back(core::jigsaw_cost(plan.formats[0], 512, version, cm));
  }
  bench::Table counters({"version", "bank conflicts", "long scoreboard",
                         "short scoreboard", "smem load txns",
                         "instructions"});
  for (std::size_t i = 0; i < versions.size(); ++i) {
    const auto& r = reports[i];
    counters.add_row({core::to_string(versions[i]),
                      bench::fmt(r.counters.smem_bank_conflicts, 0),
                      bench::fmt(r.warp_long_scoreboard(), 2),
                      bench::fmt(r.warp_short_scoreboard(), 2),
                      bench::fmt(r.counters.smem_load_transactions, 0),
                      bench::fmt(r.counters.instructions, 0)});
  }
  counters.print();

  const double conflict_reduction =
      1.0 - reports[1].counters.smem_bank_conflicts /
                reports[0].counters.smem_bank_conflicts;
  const double smem_inst_reduction =
      1.0 - reports[3].counters.smem_load_transactions /
                reports[2].counters.smem_load_transactions;
  std::cout << "\nv0->v1 bank-conflict reduction: "
            << bench::fmt(conflict_reduction * 100) << "% (paper: 99.48%)\n"
            << "v1 long scoreboard: "
            << bench::fmt(reports[1].warp_long_scoreboard())
            << " -> v2: " << bench::fmt(reports[2].warp_long_scoreboard())
            << " (paper: 1.82 -> 0.87)\n"
            << "v2->v3 smem access reduction: "
            << bench::fmt(smem_inst_reduction * 100)
            << "% (paper: 7.78%)\n";
}

}  // namespace
}  // namespace jigsaw

int main() {
  jigsaw::run();
  return 0;
}
