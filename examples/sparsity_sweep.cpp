// Example: where does Jigsaw beat the dense path on your matrix?
//
// Sweeps sparsity x vector-width for a fixed shape and prints the
// simulated Jigsaw-vs-cuBLAS speedup plus the reorder outcome, showing
// the crossover behaviour the paper reports (below ~90% sparsity with
// narrow vectors the dense tensor cores win; beyond it Jigsaw pulls
// ahead, fastest with wide vectors).
#include <cstdio>
#include <iostream>

#include "baselines/dense_gemm.hpp"
#include "core/kernel.hpp"
#include "matrix/vector_sparse.hpp"

int main(int argc, char** argv) {
  using namespace jigsaw;
  const std::size_t m = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1024;
  const std::size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1024;
  const std::size_t n = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 256;

  gpusim::CostModel a100_model;
  const double dense_us =
      baselines::DenseGemmKernel::cost(m, n, k, a100_model).duration_us;
  std::cout << "shape " << m << "x" << k << " * " << k << "x" << n
            << ", cuBLAS baseline " << dense_us << " us\n\n";
  std::printf("%9s %4s %10s %8s %12s %10s %9s\n", "sparsity", "v", "reorder",
              "BT", "kernel-us", "speedup", "skipped");

  for (const double sparsity : {0.70, 0.80, 0.90, 0.95, 0.98}) {
    for (const std::size_t v : {2ul, 4ul, 8ul}) {
      VectorSparseOptions gen;
      gen.rows = m;
      gen.cols = k;
      gen.vector_width = v;
      gen.sparsity = sparsity;
      gen.seed = 77;
      const auto a = VectorSparseGenerator::generate(gen);

      const auto plan = core::jigsaw_plan(a.values());
      const auto sel = core::jigsaw_select(plan, n, a100_model);

      // Stats of the selected candidate.
      const auto& reorder = plan.reorders[sel.index];
      const double skipped =
          1.0 - reorder.mean_padded_cols() / static_cast<double>(k);
      std::printf("%8.0f%% %4zu %10s %8d %12.2f %9.2fx %8.0f%%\n",
                  sparsity * 100, v, reorder.success() ? "ok" : "grew-K",
                  plan.formats[sel.index].tile_config().block_tile_m,
                  sel.report.duration_us, dense_us / sel.report.duration_us,
                  skipped * 100);
    }
    std::cout << "\n";
  }
  std::cout << "('skipped' = zero columns removed by the BLOCK_TILE reorder\n"
               " in the selected configuration, averaged over panels)\n";
  return 0;
}
