// Extension bench (§4.7, the paper's future work): hybrid execution
// across SpTC + dense tensor cores + CUDA cores, versus the pure-SpTC
// Jigsaw kernel and cuBLAS, over a sparsity sweep that extends BELOW the
// paper's 80% floor. The paper predicts the pure design stops paying off
// under ~80%; the hybrid should extend the crossover leftward.
#include <iostream>

#include "baselines/dense_gemm.hpp"
#include "bench_common.hpp"
#include "core/hybrid.hpp"

namespace jigsaw {
namespace {

void run() {
  bench::print_banner("Extension: hybrid SpTC + dense TC + CUDA cores",
                      "Jigsaw (ICPP'24) §4.7 (future work)");

  gpusim::CostModel cm;
  const std::vector<double> sparsities{0.50, 0.60, 0.70, 0.80, 0.90, 0.95};
  const std::size_t v = 8;
  const std::size_t n = 256;

  bench::Table table({"sparsity", "pure Jigsaw vs cuBLAS",
                      "hybrid vs cuBLAS", "dense-routed", "cuda-routed"});
  const auto shapes = bench::full_suite()
                          ? bench::bench_shapes()
                          : std::vector<dlmc::Shape>{{512, 1024}, {768, 768}};
  for (const double s : sparsities) {
    double pure_acc = 0, hybrid_acc = 0, dense_frac = 0, cuda_frac = 0;
    int count = 0;
    for (const auto& shape : shapes) {
      const auto a = dlmc::make_lhs(shape, s, v);
      const double dense =
          baselines::DenseGemmKernel::cost(shape.m, n, shape.k, cm)
              .duration_cycles;
      const auto pure =
          core::jigsaw_select(core::jigsaw_plan(a.values(), {}), n, cm);
      const auto hplan = core::hybrid_plan(a.values(), {.block_tile = 16});
      const auto hybrid = core::hybrid_cost(hplan, n, cm);
      pure_acc += dense / pure.report.duration_cycles;
      hybrid_acc += dense / hybrid.duration_cycles;
      const double cols =
          static_cast<double>(a.cols()) * static_cast<double>(hplan.routing.size());
      dense_frac += static_cast<double>(hplan.total_dense_columns()) / cols;
      cuda_frac += static_cast<double>(hplan.total_cuda_columns()) / cols;
      ++count;
    }
    table.add_row({bench::fmt(s * 100, 0) + "%",
                   bench::fmt(pure_acc / count) + "x",
                   bench::fmt(hybrid_acc / count) + "x",
                   bench::fmt(100.0 * dense_frac / count, 1) + "%",
                   bench::fmt(100.0 * cuda_frac / count, 1) + "%"});
  }
  table.print();
  std::cout << "\nExpected shape: the hybrid matches pure Jigsaw at >= 90%\n"
               "sparsity (nothing to route) and degrades far more gracefully\n"
               "below 80%, where dense-slice columns leave the SpTC path.\n";
}

}  // namespace
}  // namespace jigsaw

int main() {
  jigsaw::run();
  return 0;
}
