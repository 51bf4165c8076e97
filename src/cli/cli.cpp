#include "cli/cli.hpp"

#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "baselines/jigsaw_adapter.hpp"
#include "baselines/spmm_kernel.hpp"
#include "common/error.hpp"
#include "core/hybrid.hpp"
#include "core/kernel.hpp"
#include "core/serialize.hpp"
#include "engine/engine.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/reference.hpp"
#include "matrix/two_four.hpp"
#include "matrix/vector_sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::cli {

namespace {

constexpr const char* kUsage = R"(usage: jigsaw <command> [options]

commands:
  generate --rows M --cols K [--sparsity 0.9] [--vector-width 4]
           [--seed 1] --out a.mtx
      Synthesize a vector-sparse matrix (DLMC-style random pruning).

  info <a.mtx>
      Shape, sparsity, native 2:4 compliance, and the multi-granularity
      reorder outcome for BLOCK_TILE 16/32/64.

  plan <a.mtx> --out a.jsf [--block-tile 16|32|64] [--naive-metadata]
      Reorder + build + save the reorder-aware format.

  run <a.mtx|a.jsf> [--n 256] [--kernel jigsaw|hybrid|cublas|clasp|
      magicube|sputnik|sparta] [--verify] [--seed 1]
      [--device a100|a100-80g|h100] [--checked]
      Simulate one SpMM kernel on the selected device model and print
      its report. --checked (jigsaw kernel only) routes through the
      non-throwing checked tier: the format is deep-validated first and
      panels whose reorder fails degrade to the hybrid dense/CUDA pipes.

  validate <a.jsf>
      Verify a saved format without executing it: v2 checksums plus the
      deep structural validator. Exits 0 (OK) or 1 (rejected).

  bench <a.mtx> [--n 256] [--seed 1]
      Run every kernel on the same problem and print the comparison.

  serve [a.mtx] [--rows 128 --cols 128 --sparsity 0.85 --vector-width 4]
        [--requests 16] [--threads 4] [--n 32] [--seed 1]
        [--policy auto|raw|checked|hybrid] [--device a100|a100-80g|h100]
        [--update-every N]
      Drive the serving engine end-to-end: compile the matrix once
      (with a warm recompile to demonstrate the plan cache), then submit
      N random right-hand sides across T worker threads and print cache,
      latency, and throughput statistics. Without an input file a
      vector-sparse matrix is generated from the --rows/--cols flags.
      --update-every N compiles the matrix updatable and streams a small
      weight delta through Engine::update every N requests while the
      submits keep flowing through Engine::latest — the final
      verification runs against the mutated matrix.

  profile [a.mtx] [--rows 512 --cols 512 --sparsity 0.8 --vector-width 4]
          [--n 256] [--seed 1] [--trace out.json] [--all-metrics]
      Drive the full pipeline (reorder -> format -> serialize roundtrip ->
      kernel cost V0..V4 -> compute -> hybrid -> checked) with tracing and
      metrics enabled, then print the metrics summary. Without an input
      file a vector-sparse matrix is generated from the --rows/--cols
      flags. --trace writes a Chrome trace-event JSON (chrome://tracing,
      Perfetto). --all-metrics includes zero-valued instruments.
)";

DenseMatrix<fp16_t> random_rhs(std::size_t k, std::size_t n,
                               std::uint64_t seed) {
  DenseMatrix<fp16_t> b(k, n);
  Rng rng(mix_seed(seed, 0xb0b));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  return b;
}

void print_report(const gpusim::KernelReport& r, std::ostream& out) {
  out << "kernel:            " << r.name << "\n"
      << "duration:          " << r.duration_us << " us ("
      << r.duration_cycles << " cycles)\n"
      << "bound by:          " << r.breakdown.limiter_name() << "\n"
      << "launch:            " << r.launch.blocks << " blocks x "
      << r.launch.threads_per_block << " threads, "
      << r.launch.smem_per_block / 1024.0 << " KiB smem\n"
      << "occupancy:         " << r.occupancy.blocks_per_sm << " blocks/SM ("
      << r.occupancy.limiter << "-limited), " << r.occupancy.warps_per_sm
      << " warps/SM\n"
      << "dram traffic:      "
      << (r.counters.dram_read_bytes + r.counters.dram_write_bytes) / 1024.0
      << " KiB\n"
      << "smem transactions: "
      << r.counters.smem_load_transactions +
             r.counters.smem_store_transactions
      << " (" << r.counters.smem_bank_conflicts << " conflict replays)\n"
      << "warp stalls:       long scoreboard " << r.warp_long_scoreboard()
      << "/inst, short " << r.warp_short_scoreboard() << "/inst\n";
}

void fail_on_unknown_flags(const Args& args,
                           std::initializer_list<const char*> known) {
  for (const auto& name : args.flag_names()) {
    bool ok = false;
    for (const char* k : known) ok |= (name == k);
    JIGSAW_CHECK_MSG(ok, "unknown option --" << name << "\n" << kUsage);
  }
}

int cmd_generate(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(
      args, {"rows", "cols", "sparsity", "vector-width", "seed", "out"});
  VectorSparseOptions o;
  o.rows = args.value_size("rows", 0);
  o.cols = args.value_size("cols", 0);
  o.sparsity = args.value_double("sparsity", 0.9);
  o.vector_width = args.value_size("vector-width", 4);
  o.seed = args.value_size("seed", 1);
  JIGSAW_CHECK_MSG(o.rows > 0 && o.cols > 0,
                   "--rows and --cols are required\n" << kUsage);
  const std::string path = args.value("out");
  JIGSAW_CHECK_MSG(!path.empty(), "--out is required\n" << kUsage);
  const auto m = VectorSparseGenerator::generate(o);
  write_matrix_market_file(m.values(), path);
  out << "wrote " << path << ": " << o.rows << "x" << o.cols << ", sparsity "
      << m.sparsity() * 100 << "%, v=" << o.vector_width << "\n";
  return 0;
}

int cmd_info(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {});
  JIGSAW_CHECK_MSG(args.positional().size() == 2,
                   "info needs one input file\n" << kUsage);
  const auto a = read_matrix_market_file(args.positional()[1]);
  out << "shape:      " << a.rows() << " x " << a.cols() << "\n"
      << "nonzeros:   " << count_nonzeros(a) << " (sparsity "
      << sparsity_of(a) * 100 << "%)\n";
  const auto tf = analyze_two_four(a);
  out << "native 2:4: " << (tf.compliant() ? "yes" : "no") << " ("
      << tf.compliance_ratio() * 100 << "% of groups comply)\n";
  for (const int bt : {16, 32, 64}) {
    core::ReorderOptions opts;
    opts.tile.block_tile_m = bt;
    const auto r = core::multi_granularity_reorder(a, opts);
    out << "reorder BT=" << bt << ": "
        << (r.success() ? "success" : "K grows") << ", mean padded K "
        << r.mean_padded_cols() << ", zero columns/panel "
        << static_cast<double>(r.total_zero_columns()) /
               static_cast<double>(r.panels.size())
        << ", evictions " << r.total_evictions() << "\n";
    const core::PlanStats& s = r.stats;
    out << "  plan: " << s.total_seconds * 1e3 << " ms ("
        << s.mask_seconds * 1e3 << " mask / " << s.search_seconds * 1e3
        << " search), " << s.tile_searches << " searches, "
        << s.identity_tiles << " identity, " << s.fresh_enumerations
        << " enumerations\n";
    if (r.failed_panels() > 0 || s.rescued_panels > 0) {
      out << "  failures: " << r.failed_panels() << " panel(s) over K ("
          << r.failure_count(core::PanelFailure::kInfeasibleRow)
          << " infeasible-row, "
          << r.failure_count(core::PanelFailure::kRetryExhausted)
          << " retry-exhausted, "
          << r.failure_count(core::PanelFailure::kTailSplit)
          << " tail-split), " << s.rescued_panels << " rescued in "
          << s.rescue_attempts_run << " attempt(s)\n";
    }
  }
  return 0;
}

int cmd_plan(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {"out", "block-tile", "naive-metadata"});
  JIGSAW_CHECK_MSG(args.positional().size() == 2,
                   "plan needs one input file\n" << kUsage);
  const std::string path = args.value("out");
  JIGSAW_CHECK_MSG(!path.empty(), "--out is required\n" << kUsage);
  const auto a = read_matrix_market_file(args.positional()[1]);
  core::ReorderOptions opts;
  opts.tile.block_tile_m =
      static_cast<int>(args.value_size("block-tile", 64));
  const auto reorder = core::multi_granularity_reorder(a, opts);
  const auto layout = args.has_flag("naive-metadata")
                          ? core::MetadataLayout::kNaive
                          : core::MetadataLayout::kInterleaved;
  const auto format = core::JigsawFormat::build(a, reorder, layout);
  core::save_format_file(format, path);
  const auto fp = format.memory_footprint();
  out << "wrote " << path << ": BLOCK_TILE "
      << format.tile_config().block_tile_m << ", "
      << (reorder.success() ? "reorder success" : "K grew") << ", "
      << fp.total() << " bytes ("
      << 100.0 * static_cast<double>(fp.total()) /
             (2.0 * static_cast<double>(a.rows()) *
              static_cast<double>(a.cols()))
      << "% of dense)\n";
  out << "planned in " << reorder.stats.total_seconds * 1e3 << " ms, "
      << reorder.stats.tile_searches << " tile searches, "
      << reorder.stats.evictions << " evictions, "
      << reorder.stats.rescued_panels << " rescued panel(s)\n";
  return 0;
}

int cmd_run(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(
      args, {"n", "kernel", "verify", "seed", "device", "checked"});
  JIGSAW_CHECK_MSG(args.positional().size() == 2,
                   "run needs one input file\n" << kUsage);
  const std::string input = args.positional()[1];
  const std::size_t n = args.value_size("n", 256);
  const std::uint64_t seed = args.value_size("seed", 1);
  const std::string kernel = args.value("kernel", "jigsaw");
  const bool verify = args.has_flag("verify");
  const bool checked = args.has_flag("checked");
  JIGSAW_CHECK_MSG(!checked || kernel == "jigsaw",
                   "--checked applies to the jigsaw kernel only");
  gpusim::CostModel cm(gpusim::arch_by_name(args.value("device", "a100")));

  // A .jsf plan runs the Jigsaw kernel straight from the saved format.
  if (input.size() > 4 && input.substr(input.size() - 4) == ".jsf") {
    JIGSAW_CHECK_MSG(kernel == "jigsaw",
                     "a saved plan can only run the jigsaw kernel");
    JIGSAW_CHECK_MSG(!verify,
                     "--verify needs the original matrix; run the .mtx file");
    core::JigsawFormat format;
    if (checked) {
      auto loaded = core::load_format_file_checked(input);
      if (!loaded.ok()) {
        out << "format rejected: " << loaded.status().to_string() << "\n";
        return 1;
      }
      format = std::move(loaded).take();
    } else {
      format = core::load_format_file(input);
    }
    const auto report =
        core::jigsaw_cost(format, n, core::KernelVersion::kV4, cm);
    print_report(report, out);
    return 0;
  }

  const auto dense = read_matrix_market_file(input);
  const auto b = random_rhs(dense.cols(), n, seed);

  std::optional<DenseMatrix<float>> c;
  gpusim::KernelReport report;
  if (checked || kernel == "hybrid") {
    // Both tiers go through the serving engine: compile once (cache miss
    // in this one-shot process), then execute via the unified facade.
    Engine engine({.cost_model = cm});
    EngineOptions options;
    options.policy = checked ? core::ExecutionPolicy::kChecked
                             : core::ExecutionPolicy::kHybrid;
    auto compiled = engine.compile(dense, options);
    if (!compiled.ok()) {
      out << (checked ? "checked run" : "hybrid plan") << " rejected: "
          << compiled.status().to_string() << "\n";
      return 1;
    }
    const CompiledMatrix& handle = *compiled.value();
    if (checked) {
      const auto& deg = handle.degradation;
      out << "checked:           " << deg.panels_degraded << "/"
          << deg.panels_total << " panels degraded ("
          << deg.fallback_dense_columns << " columns -> dense TC, "
          << deg.fallback_cuda_columns << " -> CUDA cores), "
          << deg.reorder_evictions << " reorder evictions\n";
      for (const auto& line : deg.notes) out << "  " << line << "\n";
    } else {
      out << "routing: " << handle.hybrid->total_dense_columns()
          << " dense-TC columns, " << handle.hybrid->total_cuda_columns()
          << " CUDA columns\n";
    }
    report = engine.cost(handle, n);
    if (checked || verify) {
      auto result = engine.submit(compiled.value(), b).get();
      if (!result.ok()) {
        out << "execution rejected: " << result.status().to_string() << "\n";
        return 1;
      }
      c = std::move(result.value());
    }
  } else {
    // Wrap the dense matrix as a v=1 vector-sparse operand for the common
    // kernel interface.
    DenseMatrix<std::uint8_t> mask(dense.rows(), dense.cols(), 0);
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      for (std::size_t col = 0; col < dense.cols(); ++col) {
        mask(r, col) = dense(r, col).is_zero() ? 0 : 1;
      }
    }
    const auto a = VectorSparseMatrix::from_parts(1, std::move(mask),
                                                  DenseMatrix<fp16_t>(dense));
    std::unique_ptr<baselines::SpmmKernel> impl;
    if (kernel == "jigsaw") {
      impl = std::make_unique<baselines::JigsawSpmmKernel>();
    } else {
      for (auto& k : baselines::make_baselines()) {
        std::string name = k->name();
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        if (name == kernel) impl = std::move(k);
      }
    }
    JIGSAW_CHECK_MSG(impl != nullptr, "unknown kernel " << kernel << "\n"
                                                        << kUsage);
    auto result = impl->run(a, b, cm, {.compute_values = verify});
    c = std::move(result.c);
    report = std::move(result.report);
  }
  print_report(report, out);
  if (verify) {
    const auto ref = reference_gemm(dense, b);
    const double err = max_abs_diff(*c, ref);
    const bool ok = allclose(*c, ref, dense.cols());
    out << "verification:      max |error| " << err << " -> "
        << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
  }
  return 0;
}

int cmd_validate(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {});
  JIGSAW_CHECK_MSG(args.positional().size() == 2,
                   "validate needs one .jsf file\n" << kUsage);
  const std::string path = args.positional()[1];
  auto loaded = core::load_format_file_checked(path);
  if (!loaded.ok()) {
    out << path << ": REJECTED (" << loaded.status().to_string() << ")\n";
    return 1;
  }
  const auto format = std::move(loaded).take();
  out << path << ": OK — " << format.rows() << " x " << format.cols()
      << ", BLOCK_TILE " << format.tile_config().block_tile_m << ", "
      << format.panels().size() << " panels, "
      << format.memory_footprint().total() << " bytes\n";
  return 0;
}

int cmd_bench(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {"n", "seed"});
  JIGSAW_CHECK_MSG(args.positional().size() == 2,
                   "bench needs one input file\n" << kUsage);
  const auto dense = read_matrix_market_file(args.positional()[1]);
  const std::size_t n = args.value_size("n", 256);
  const auto b = random_rhs(dense.cols(), n, args.value_size("seed", 1));

  DenseMatrix<std::uint8_t> mask(dense.rows(), dense.cols(), 0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t col = 0; col < dense.cols(); ++col) {
      mask(r, col) = dense(r, col).is_zero() ? 0 : 1;
    }
  }
  const auto a = VectorSparseMatrix::from_parts(1, std::move(mask),
                                                DenseMatrix<fp16_t>(dense));
  gpusim::CostModel cm;
  auto kernels = baselines::make_baselines();
  kernels.push_back(std::make_unique<baselines::JigsawSpmmKernel>());
  double dense_us = 0;
  out << "kernel        duration-us   speedup-vs-cuBLAS\n";
  for (const auto& kernel : kernels) {
    const auto r = kernel->run(a, b, cm, {.compute_values = false});
    if (kernel->name() == "cuBLAS") dense_us = r.report.duration_us;
    char line[96];
    std::snprintf(line, sizeof(line), "%-12s %12.2f   %8.2fx\n",
                  kernel->name().c_str(), r.report.duration_us,
                  dense_us / r.report.duration_us);
    out << line;
  }
  return 0;
}

int cmd_profile(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {"rows", "cols", "sparsity", "vector-width",
                               "n", "seed", "trace", "all-metrics"});
  JIGSAW_CHECK_MSG(args.positional().size() <= 2,
                   "profile takes at most one input file\n" << kUsage);
  const std::size_t n = args.value_size("n", 256);
  const std::uint64_t seed = args.value_size("seed", 1);

  DenseMatrix<fp16_t> a(1, 1);
  if (args.positional().size() == 2) {
    a = read_matrix_market_file(args.positional()[1]);
    out << "profiling " << args.positional()[1] << ": " << a.rows() << " x "
        << a.cols() << ", sparsity " << sparsity_of(a) * 100 << "%\n";
  } else {
    VectorSparseOptions o;
    o.rows = args.value_size("rows", 512);
    o.cols = args.value_size("cols", 512);
    o.sparsity = args.value_double("sparsity", 0.8);
    o.vector_width = args.value_size("vector-width", 4);
    o.seed = seed;
    a = VectorSparseGenerator::generate(o).values();
    out << "profiling generated " << o.rows << " x " << o.cols
        << ", sparsity " << sparsity_of(a) * 100 << "%, v="
        << o.vector_width << "\n";
  }

  obs::reset_metrics();
  obs::reset_trace();
  obs::set_enabled(true);

  gpusim::CostModel cm;
  const auto b = random_rhs(a.cols(), n, seed);

  // Reorder + format build, both metadata layouts.
  core::ReorderOptions ropts;
  const auto reorder = core::multi_granularity_reorder(a, ropts);
  const auto naive =
      core::JigsawFormat::build(a, reorder, core::MetadataLayout::kNaive);
  const auto interleaved = core::JigsawFormat::build(
      a, reorder, core::MetadataLayout::kInterleaved);

  // Serialization roundtrip (in memory).
  {
    std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
    core::save_format(interleaved, blob);
    auto loaded = core::load_format_checked(blob);
    JIGSAW_CHECK_MSG(loaded.ok(), "roundtrip failed: "
                                      << loaded.status().to_string());
  }

  // Cost walk for every kernel version of the ablation.
  for (const auto version :
       {core::KernelVersion::kV0, core::KernelVersion::kV1,
        core::KernelVersion::kV2, core::KernelVersion::kV3,
        core::KernelVersion::kV4}) {
    const core::KernelFeatures feats =
        core::KernelFeatures::for_version(version);
    const auto& f = feats.interleaved_metadata ? interleaved : naive;
    (void)core::jigsaw_cost(f, n, version, cm);
  }

  // Full V4 plan + candidate choice (tile tuning across BLOCK_TILE
  // 16/32/64).
  {
    const auto plan = core::jigsaw_plan(a, {});
    (void)core::jigsaw_select(plan, b.cols(), cm);
  }

  // Functional compute + hybrid tier, then the serving engine's default
  // (checked) route: compile + execute.
  (void)core::jigsaw_compute(interleaved, b);
  const auto hplan = core::hybrid_plan(a, {.block_tile = 16});
  (void)core::hybrid_cost(hplan, b.cols(), cm);
  {
    Engine engine({.worker_threads = 1, .cost_model = cm});
    auto compiled = engine.compile(a);
    JIGSAW_CHECK_MSG(compiled.ok(), "checked compile rejected: "
                                        << compiled.status().to_string());
    auto run = engine.execute(*compiled.value(), b);
    JIGSAW_CHECK_MSG(run.ok(),
                     "checked run rejected: " << run.status().to_string());
  }

  obs::set_enabled(false);

  const std::string trace_path = args.value("trace");
  if (!trace_path.empty()) {
    std::ofstream os(trace_path, std::ios::binary);
    JIGSAW_CHECK_MSG(os.is_open(),
                     "cannot open " << trace_path << " for writing");
    obs::write_chrome_trace(os);
    out << "wrote " << obs::trace_event_count() << " trace events to "
        << trace_path;
    if (obs::trace_dropped_count() > 0) {
      out << " (" << obs::trace_dropped_count() << " dropped)";
    }
    out << "\n";
  }

  out << "\n--- metrics ---\n";
  obs::write_metrics_summary(out, args.has_flag("all-metrics"));
  return 0;
}

core::ExecutionPolicy parse_policy(const std::string& name) {
  if (name == "auto") return core::ExecutionPolicy::kAuto;
  if (name == "raw") return core::ExecutionPolicy::kRaw;
  if (name == "checked") return core::ExecutionPolicy::kChecked;
  if (name == "hybrid") return core::ExecutionPolicy::kHybrid;
  throw Error("--policy expects auto|raw|checked|hybrid, got " + name);
}

int cmd_serve(const Args& args, std::ostream& out) {
  fail_on_unknown_flags(args, {"rows", "cols", "sparsity", "vector-width",
                               "requests", "threads", "n", "seed", "policy",
                               "device", "update-every"});
  JIGSAW_CHECK_MSG(args.positional().size() <= 2,
                   "serve takes at most one input file\n" << kUsage);
  const std::size_t requests = args.value_size("requests", 16);
  const int threads = static_cast<int>(args.value_size("threads", 4));
  const std::size_t n = args.value_size("n", 32);
  const std::uint64_t seed = args.value_size("seed", 1);
  const std::size_t update_every = args.value_size("update-every", 0);

  DenseMatrix<fp16_t> a(1, 1);
  if (args.positional().size() == 2) {
    a = read_matrix_market_file(args.positional()[1]);
    out << "serving " << args.positional()[1] << ": " << a.rows() << " x "
        << a.cols() << ", sparsity " << sparsity_of(a) * 100 << "%\n";
  } else {
    VectorSparseOptions o;
    o.rows = args.value_size("rows", 128);
    o.cols = args.value_size("cols", 128);
    o.sparsity = args.value_double("sparsity", 0.85);
    o.vector_width = args.value_size("vector-width", 4);
    o.seed = seed;
    a = VectorSparseGenerator::generate(o).values();
    out << "serving generated " << o.rows << " x " << o.cols << ", sparsity "
        << sparsity_of(a) * 100 << "%, v=" << o.vector_width << "\n";
  }

  obs::reset_metrics();
  obs::set_metrics_enabled(true);

  EngineConfig config;
  config.worker_threads = threads;
  config.cost_model =
      gpusim::CostModel(gpusim::arch_by_name(args.value("device", "a100")));
  Engine engine(config);
  EngineOptions options;
  options.policy = parse_policy(args.value("policy", "auto"));
  options.compile.updatable = update_every > 0;

  auto compiled = engine.compile(a, options);
  if (!compiled.ok()) {
    out << "compile rejected: " << compiled.status().to_string() << "\n";
    return 1;
  }
  const auto handle = compiled.value();
  out << "compiled in " << handle->compile_seconds * 1e3 << " ms: policy "
      << core::to_string(handle->policy) << ", plan fingerprint 0x" << std::hex
      << handle->plan_fingerprint << std::dec << ", footprint "
      << handle->footprint_bytes << " bytes";
  if (handle->degraded) {
    out << " (" << handle->degradation.panels_degraded << "/"
        << handle->degradation.panels_total << " panels degraded)";
  }
  out << "\n";

  // Warm recompile of the same matrix: must hit the plan cache.
  auto warm = engine.compile(a, options);
  if (!warm.ok()) {
    out << "warm recompile rejected: " << warm.status().to_string() << "\n";
    return 1;
  }
  out << "warm recompile:   "
      << (warm.value().get() == handle.get() ? "cache hit (same artifact)"
                                             : "MISS — cache broken")
      << "\n";

  // --update-every deltas rewrite existing nonzero values, preserving the
  // sparsity structure (and therefore §4.3 reorder feasibility) while the
  // served content drifts; `a_now` mirrors the lineage head so the final
  // verification has its ground truth.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> nonzeros;
  if (update_every > 0) {
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
      for (std::uint32_t c = 0; c < a.cols(); ++c) {
        if (!a(r, c).is_zero()) nonzeros.emplace_back(r, c);
      }
    }
  }
  DenseMatrix<fp16_t> a_now = a;
  auto current = handle;
  std::size_t updates_applied = 0;
  Rng delta_rng(mix_seed(seed, 0xde17a));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<Result<DenseMatrix<float>>>> futures;
  futures.reserve(requests);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (update_every > 0 && i > 0 && i % update_every == 0 &&
        !nonzeros.empty()) {
      constexpr std::size_t kDeltaEntries = 8;
      SparseDelta delta;
      for (std::size_t e = 0; e < kDeltaEntries; ++e) {
        const auto& [r, c] = nonzeros[delta_rng.next_below(nonzeros.size())];
        delta.set(r, c, delta_rng.uniform(0.25f, 1.0f));
      }
      auto updated = engine.update(current, delta);
      if (updated.ok()) {
        // Mirror only once the generation is published — a failed update
        // leaves the old generation serving and a_now must keep matching.
        for (const auto& e : delta.entries) a_now(e.row, e.col) = e.value;
        current = updated.value();
        ++updates_applied;
      } else {
        ++failed;
        out << "update failed: " << updated.status().to_string() << "\n";
      }
    }
    // Submit through latest(): the request binds to whatever generation
    // is published at this instant and in-flight work is never torn.
    futures.push_back(engine.submit(Engine::latest(current),
                                    random_rhs(a.cols(), n, mix_seed(seed, i))));
  }
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      ++failed;
      out << "request failed: " << result.status().to_string() << "\n";
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out << "served " << requests - failed << "/" << requests
      << " requests (n=" << n << ") on " << engine.worker_count()
      << " workers in " << wall * 1e3 << " ms ("
      << static_cast<double>(requests - failed) / wall << " req/s)\n";
  if (update_every > 0) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    const double incremental = obs::counter("jigsaw.engine.update.incremental").value();
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    const double full = obs::counter("jigsaw.engine.update.full_recompiles").value();
    out << "updates:          " << updates_applied << " applied, generation "
        << Engine::latest(current)->generation << ", " << incremental
        << " incremental, " << full << " full recompiles\n";
  }

  // Spot-check one request against the dense reference — through
  // latest(), against the mutated operand, so a drifted lineage head or a
  // stale mirror fails loudly.
  {
    const auto b = random_rhs(a.cols(), n, mix_seed(seed, 0));
    auto result = engine.submit(Engine::latest(current), b).get();
    if (!result.ok() ||
        !allclose(result.value(), reference_gemm(a_now, b), a.cols())) {
      out << "verification:     FAILED\n";
      return 1;
    }
    out << "verification:     OK\n";
  }

  const auto snapshot = obs::metrics_snapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name != "engine.execute_seconds") continue;
    out << "latency:          p50 " << h.p50 * 1e3 << " ms, p99 "
        << h.p99 * 1e3 << " ms, max " << h.max * 1e3 << " ms over " << h.count
        << " executions\n";
  }
  const CacheStats stats = engine.cache_stats();
  out << "cache:            " << stats.entries << " entries, " << stats.bytes
      << " / " << stats.capacity_bytes << " bytes, " << stats.hits
      << " hits, " << stats.misses << " misses, " << stats.evictions
      << " evictions\n";
  obs::set_metrics_enabled(false);
  return failed == 0 ? 0 : 1;
}

}  // namespace

Args::Args(int argc, const char* const* argv)
    : Args(std::vector<std::string>(argv + std::min(argc, 1), argv + argc)) {}

Args::Args(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t.rfind("--", 0) == 0) {
      const std::string name = t.substr(2);
      JIGSAW_CHECK_MSG(!name.empty(), "stray -- argument");
      if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
        flags_.emplace_back(name, tokens[++i]);
      } else {
        flags_.emplace_back(name, "");  // boolean flag
      }
    } else {
      positional_.push_back(t);
    }
  }
}

bool Args::has_flag(const std::string& name) const {
  for (const auto& [n, v] : flags_) {
    if (n == name) return true;
  }
  return false;
}

std::string Args::value(const std::string& name,
                        const std::string& fallback) const {
  for (const auto& [n, v] : flags_) {
    if (n == name) return v;
  }
  return fallback;
}

std::size_t Args::value_size(const std::string& name,
                             std::size_t fallback) const {
  const std::string v = value(name);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const auto parsed = std::stoull(v, &pos);
    JIGSAW_CHECK(pos == v.size());
    return parsed;
  } catch (const std::exception&) {
    throw Error("--" + name + " expects an integer, got " + v);
  }
}

double Args::value_double(const std::string& name, double fallback) const {
  const std::string v = value(name);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(v, &pos);
    JIGSAW_CHECK(pos == v.size());
    return parsed;
  } catch (const std::exception&) {
    throw Error("--" + name + " expects a number, got " + v);
  }
}

std::vector<std::string> Args::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [n, v] : flags_) names.push_back(n);
  return names;
}

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    const Args parsed(args);
    if (parsed.positional().empty()) {
      err << kUsage;
      return 2;
    }
    const std::string& command = parsed.positional()[0];
    if (command == "generate") return cmd_generate(parsed, out);
    if (command == "info") return cmd_info(parsed, out);
    if (command == "plan") return cmd_plan(parsed, out);
    if (command == "run") return cmd_run(parsed, out);
    if (command == "validate") return cmd_validate(parsed, out);
    if (command == "bench") return cmd_bench(parsed, out);
    if (command == "serve") return cmd_serve(parsed, out);
    if (command == "profile") return cmd_profile(parsed, out);
    if (command == "help" || command == "--help") {
      out << kUsage;
      return 0;
    }
    err << "unknown command: " << command << "\n" << kUsage;
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace jigsaw::cli
