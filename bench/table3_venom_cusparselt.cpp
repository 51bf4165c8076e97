// Table 3 (§4.5): Jigsaw on matrices that already satisfy the SpTC
// pattern without reordering — VENOM-pruned V:2:M matrices — compared
// against the VENOM kernel and cuSparseLt, for V in {32, 64, 128} and
// sparsity in {80, 90, 95, 98}%.
#include <iostream>

#include "baselines/cusparselt.hpp"
#include "baselines/venom.hpp"
#include "bench_common.hpp"
#include "core/kernel.hpp"

namespace jigsaw {
namespace {

void run() {
  bench::print_banner("Table 3: Jigsaw vs VENOM and cuSparseLt",
                      "Jigsaw (ICPP'24) Table 3 / §4.5");

  gpusim::CostModel cm;
  const std::vector<std::size_t> stripe_heights{32, 64, 128};
  const auto ns = bench::full_suite() ? dlmc::output_widths()
                                      : std::vector<std::size_t>{256, 512};

  std::vector<std::string> headers{"sparsity"};
  for (const auto v : stripe_heights) {
    headers.push_back("VENOM V=" + std::to_string(v));
  }
  for (const auto v : stripe_heights) {
    headers.push_back("cuSpLt V=" + std::to_string(v));
  }
  bench::Table table(headers);

  for (const double s : dlmc::sparsities()) {
    std::vector<std::string> row{bench::fmt(s * 100, 0) + "%"};
    std::vector<double> venom_speedups, cusp_speedups;
    for (const auto v : stripe_heights) {
      bench::SpeedupAccumulator acc;
      const auto cfg = baselines::VenomConfig::for_sparsity(v, s);
      for (const auto& shape : bench::bench_shapes()) {
        // Stripe height must divide M; round M up to a V multiple.
        const std::size_t m = core::round_up(shape.m, v);
        const auto a = baselines::venom_prune(
            m, shape.k, cfg, 2024 + shape.m + shape.k);
        const auto plan = core::jigsaw_plan(a.values(), {});
        for (const std::size_t n : ns) {
          const double jig =
              core::jigsaw_select(plan, n, cm).report.duration_cycles;
          const double venom =
              baselines::VenomKernel::cost(a, n, cfg, cm).duration_cycles;
          const double cusp =
              baselines::CuSparseLtKernel::cost(m, n, shape.k, cm)
                  .duration_cycles;
          acc.add("venom", venom / jig);
          acc.add("cusparselt", cusp / jig);
        }
      }
      venom_speedups.push_back(acc.average("venom"));
      cusp_speedups.push_back(acc.average("cusparselt"));
    }
    for (const double x : venom_speedups) row.push_back(bench::fmt(x) + "x");
    for (const double x : cusp_speedups) row.push_back(bench::fmt(x) + "x");
    table.add_row(std::move(row));
  }
  table.print();

  std::cout <<
      "\nPaper Table 3 (average speedup of Jigsaw):\n"
      "            VENOM: V=32 / 64 / 128      cuSparseLt: V=32 / 64 / 128\n"
      "  80%:      1.91 / 1.63 / 1.50          2.10 / 2.12 / 2.01\n"
      "  90%:      1.53 / 1.37 / 1.33          2.16 / 2.19 / 2.08\n"
      "  95%:      1.32 / 1.22 / 1.21          2.19 / 2.21 / 2.15\n"
      "  98%:      1.22 / 1.14 / 1.15          2.31 / 2.32 / 2.28\n";
}

}  // namespace
}  // namespace jigsaw

int main() {
  jigsaw::run();
  return 0;
}
