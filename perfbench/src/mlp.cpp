// mlp_forward: a pruned three-layer MLP run through
// nn::SequentialModel::forward by one caller, back to back.
#include <cstdio>
#include <iterator>
#include <memory>

#include "core/kernel.hpp"
#include "core/tile_search_cache.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "matrix/vector_sparse.hpp"
#include "nn/sparse_linear.hpp"
#include "obs/metrics.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = jigsaw::core;
namespace nn = jigsaw::nn;

struct LayerSpec {
  const char* name;
  std::size_t out, in;
  double sparsity;
  bool gelu;
};
// The examples/mlp_inference model: 1024 -> 2048 -> 2048 -> 1024.
constexpr LayerSpec kLayers[3] = {{"fc1", 2048, 1024, 0.90, true},
                                  {"fc2", 2048, 2048, 0.95, true},
                                  {"fc3", 1024, 2048, 0.90, false}};
constexpr std::size_t kVector = 8;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPool = 4;

struct MlpInputs {
  std::vector<DenseMatrix<std::uint8_t>> masks;
  std::vector<DenseMatrix<fp16_t>> weights;
  std::vector<RefWeight> refs;
  std::vector<std::vector<float>> biases;
  std::vector<DenseMatrix<fp16_t>> pool;  ///< kIn x kBatch activations
};

MlpInputs make_mlp_inputs(std::uint64_t seed) {
  MlpInputs in;
  for (std::size_t i = 0; i < 3; ++i) {
    const LayerSpec& l = kLayers[i];
    DenseMatrix<std::uint8_t> mask;
    in.weights.push_back(make_pruned_weight(l.out, l.in, l.sparsity, kVector,
                                            mix_seed(seed, 20 + i), &mask));
    in.masks.push_back(std::move(mask));
    in.refs.push_back(to_ref(in.weights.back()));
    Rng rng(mix_seed(seed, 30 + i));
    std::vector<float> bias(l.out);
    for (float& b : bias) b = static_cast<float>(rng.uniform(-0.1, 0.1));
    in.biases.push_back(std::move(bias));
  }
  for (std::size_t b = 0; b < kPool; ++b) {
    in.pool.push_back(
        make_activations(kLayers[0].in, kBatch, mix_seed(seed, 40 + b)));
  }
  return in;
}

nn::SparseLinear::Options layer_options(std::size_t i) {
  nn::SparseLinear::Options o;
  o.activation = kLayers[i].gelu ? core::Epilogue::Activation::kGelu
                                 : core::Epilogue::Activation::kNone;
  o.name = kLayers[i].name;
  return o;
}

core::JigsawRunOptions run_options(const MlpInputs& in, std::size_t i) {
  core::JigsawRunOptions ro;
  ro.epilogue.activation = layer_options(i).activation;
  ro.epilogue.bias = &in.biases[i];
  return ro;
}

/// Replays what a layer's construction runs inside (jigsaw_plan: one
/// reorder and one format build per BLOCK_TILE candidate).
void replay_layer_init(Tracer* tracer, std::uint64_t op, std::uint64_t parent,
                       const DenseMatrix<fp16_t>& w, const core::JigsawPlan& plan) {
  MetricsPause pause;
  for (const core::ReorderResult& candidate : plan.reorders) {
    core::ReorderOptions ropts;
    ropts.tile = candidate.tile;
    ropts.search.bank_conflict_aware =
        core::KernelFeatures::for_version(plan.version).padded_smem;
    core::ReorderResult reorder;
    {
      SpanScope s(tracer, "core/reorder", "reorder.plan", op, parent, 0, true);
      reorder = core::multi_granularity_reorder(w, ropts);
    }
    SpanScope s(tracer, "core/format", "format.build", op, parent, 0, true);
    core::JigsawFormat f = core::JigsawFormat::build(
        w, reorder,
        core::KernelFeatures::for_version(plan.version).interleaved_metadata
            ? core::MetadataLayout::kInterleaved
            : core::MetadataLayout::kNaive);
    (void)f;
  }
}

/// One set-up: a cold planner memo, then every layer constructed (which
/// plans it). Weight copies are made before the clock starts.
std::unique_ptr<nn::SequentialModel> build_model(const MlpInputs& in,
                                                 Tracer* tracer,
                                                 double* seconds) {
  std::vector<jigsaw::VectorSparseMatrix> parts;
  for (std::size_t i = 0; i < 3; ++i) {
    parts.push_back(jigsaw::VectorSparseMatrix::from_parts(kVector, in.masks[i],
                                                           in.weights[i]));
  }
  std::vector<std::vector<float>> biases = in.biases;
  core::TileSearchCache::instance().clear();
  const double t0 = wall_s();
  auto model = std::make_unique<nn::SequentialModel>();
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint64_t op = tracer != nullptr ? tracer->new_id() : 0;
    SpanScope span(tracer, "nn", "nn.layer_init", op, 0, 0);
    nn::SparseLinear layer(std::move(parts[i]), std::move(biases[i]),
                           layer_options(i));
    span.close();
    if (tracer != nullptr) {
      replay_layer_init(tracer, op, span.id(), in.weights[i], layer.plan());
    }
    model->add(std::move(layer));
  }
  *seconds = wall_s() - t0;
  return model;
}

/// Layer-by-layer check of one activation batch: each layer's output
/// against the fp64 reference of that layer on the same (quantized)
/// input. Returns the reference of the last layer, which every forward
/// of this batch is then checked against; counts failed layers.
RefProduct check_layers(const nn::SequentialModel& model, const MlpInputs& in,
                        const DenseMatrix<fp16_t>& x,
                        const jigsaw::gpusim::CostModel& cost_model,
                        std::uint64_t* failed) {
  DenseMatrix<fp16_t> cur = x;
  RefProduct ref;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::Forward f = model.layer(i).forward(cur, cost_model);
    ref = reference_product(in.refs[i], cur, &in.biases[i],
                            kLayers[i].gelu ? Activation::kGelu : Activation::kNone);
    if (!matches(f.activations, ref)) {
      std::printf("layer %s does not match its reference\n", kLayers[i].name);
      ++*failed;
    }
    cur = nn::quantize_activations(f.activations);
  }
  return ref;
}

struct ForwardWindow {
  std::vector<double> seconds;
  std::uint64_t failed = 0;
  double walks = 0.0;  ///< program-counted cost walks (traced window)
  double wall = 0.0, steal = 0.0;
};

/// Replays a forward's layers: each layer's forward, under it the kernel
/// run and, under that, the cost walk of every candidate and the compute
/// of the chosen one; then the re-quantization between layers.
void replay_forward(Tracer* tracer, std::uint64_t op, std::uint64_t root,
                    const nn::SequentialModel& model, const MlpInputs& in,
                    const DenseMatrix<fp16_t>& x,
                    const jigsaw::gpusim::CostModel& cost_model) {
  MetricsPause pause;
  DenseMatrix<fp16_t> cur = x;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::SparseLinear& layer = model.layer(i);
    SpanScope lf(tracer, "nn", std::string("nn.forward.") + kLayers[i].name, op,
                 root, 0, true);
    const nn::Forward f = layer.forward(cur, cost_model);
    lf.close();
    const core::JigsawRunOptions ro = run_options(in, i);
    core::JigsawRunResult run;
    {
      SpanScope kr(tracer, "core/kernel", "kernel.run", op, lf.id(), 0, true);
      run = core::jigsaw_run(layer.plan(), cur, cost_model, ro);
      kr.close();
      const core::JigsawFormat* best = nullptr;
      for (const core::JigsawFormat& fmt : layer.plan().formats) {
        SpanScope cw(tracer, "core/kernel", "kernel.cost_walk", op, kr.id(), 0, true);
        const jigsaw::gpusim::KernelReport report = core::jigsaw_cost(
            fmt, cur.cols(), layer.plan().version, cost_model, ro.tuning, ro.epilogue);
        cw.close();
        {
          // The walk ends in the simulator's duration model.
          SpanScope est(tracer, "gpusim", "gpusim.estimate", op, cw.id(), 0, true);
          (void)cost_model.estimate(report.name, report.counters, report.launch);
        }
        if (fmt.tile_config().block_tile_m == run.selected_block_tile) best = &fmt;
      }
      if (best == nullptr) fatal("no candidate matches the selected BLOCK_TILE");
      SpanScope kc(tracer, "core/kernel", "kernel.compute", op, kr.id(), 0, true);
      (void)core::jigsaw_compute(*best, cur, ro.epilogue);
    }
    if (i + 1 < model.size()) {
      SpanScope q(tracer, "nn", "nn.quantize", op, root, 0, true);
      cur = nn::quantize_activations(f.activations);
    }
  }
}

ForwardWindow forward_loop(const nn::SequentialModel& model, const MlpInputs& in,
                           const std::vector<RefProduct>& refs, double seconds,
                           std::uint64_t seed, Tracer* tracer,
                           const jigsaw::gpusim::CostModel& cost_model) {
  ForwardWindow w;
  Rng rng(mix_seed(seed, 600));
  const CpuTimes steal0 = read_cpu_times();
  const double t0 = wall_s();
  bool thread_checked = false;
  while (wall_s() < t0 + seconds) {
    const std::size_t b = rng.below(kPool);
    const std::uint64_t op = tracer != nullptr ? tracer->new_id() : 0;
    const double walks0 = tracer != nullptr ? cost_walks_total() : 0.0;
    SpanScope span(tracer, "nn", "nn.model_forward", op, 0, 0);
    const nn::Forward f = model.forward(in.pool[b], cost_model);
    w.seconds.push_back(span.close());
    if (tracer != nullptr) w.walks += cost_walks_total() - walks0;
    if (!matches(f.activations, refs[b])) ++w.failed;
    if (tracer != nullptr) {
      replay_forward(tracer, op, span.id(), model, in, in.pool[b], cost_model);
    }
    if (!thread_checked && wall_s() > t0 + seconds / 2) {
      require_thread_count(1, "during the measured window");
      thread_checked = true;
    }
  }
  w.wall = wall_s() - t0;
  w.steal = steal_share(steal0, read_cpu_times());
  return w;
}

}  // namespace

RunResult run_mlp_forward(const RunConfig& config) {
  const MlpInputs in = make_mlp_inputs(config.seed);
  const jigsaw::gpusim::CostModel cost_model;
  RunResult r;
  LayerValues& v = r.layers;

  std::vector<double> setup_samples;
  std::unique_ptr<nn::SequentialModel> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    double secs = 0.0;
    model = build_model(in, nullptr, &secs);
    setup_samples.push_back(secs);
    std::printf("set-up %d: %.4f s\n", rep + 1, secs);
  }
  Tracer setup_tracer, window_tracer;
  if (config.trace) {
    model.reset();
    jigsaw::obs::set_metrics_enabled(true);
    const PlanCounts counts0 = PlanCounts::read();
    double secs = 0.0;
    model = build_model(in, &setup_tracer, &secs);
    add_plan_counts(v, PlanCounts::read().since(counts0), std::size(kLayers));
    jigsaw::obs::set_metrics_enabled(false);
    std::printf("traced set-up: %.4f s (replays included)\n", secs);
  }
  require_thread_count(1, "after set-up");

  // Layer-by-layer check of every pooled batch, outside any timed window.
  std::vector<RefProduct> refs;
  std::uint64_t layer_failures = 0;
  for (const DenseMatrix<fp16_t>& x : in.pool) {
    refs.push_back(check_layers(*model, in, x, cost_model, &layer_failures));
  }
  const nn::Forward first = model->forward(in.pool[0], cost_model);

  const double window = config.trace ? config.seconds * 0.5 : config.seconds;
  const ForwardWindow w =
      forward_loop(*model, in, refs, window, config.seed, nullptr, cost_model);
  r.attempted = w.seconds.size() + kPool * std::size(kLayers);  // + layer checks
  r.failed = w.failed + layer_failures;
  r.metrics["setup_s"] = median(setup_samples);
  r.metrics["latency_min_ms"] = 1e3 * minimum(w.seconds);
  r.metrics["read_min_ms"] = 1e3 * minimum(w.seconds);
  r.metrics["sim_device_us"] = first.total_us();
  double footprint = 0.0;
  for (std::size_t i = 0; i < model->size(); ++i) {
    for (const core::JigsawFormat& f : model->layer(i).plan().formats) {
      footprint += static_cast<double>(f.memory_footprint().total());
      add_format_bytes(v, f);
    }
  }
  r.metrics["footprint_mib"] = footprint / (1024.0 * 1024.0);
  print_latency("forwards", w.seconds, w.wall);
  std::printf("steal: %.2f%% of CPU time over the measured window\n",
              100.0 * w.steal);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  if (!config.trace) return r;

  jigsaw::obs::set_metrics_enabled(true);
  const ForwardWindow tw = forward_loop(*model, in, refs, window, config.seed + 1,
                                        &window_tracer, cost_model);
  jigsaw::obs::set_metrics_enabled(false);
  r.attempted += tw.seconds.size();
  r.failed += tw.failed;

  // Simulated time and chosen BLOCK_TILE of every layer on one batch.
  {
    DenseMatrix<fp16_t> cur = in.pool[0];
    for (std::size_t i = 0; i < model->size(); ++i) {
      const core::JigsawRunResult run =
          core::jigsaw_run(model->layer(i).plan(), cur, cost_model, run_options(in, i));
      add_gpusim(v, i, run.report, run.selected_block_tile);
      if (i + 1 < model->size()) cur = nn::quantize_activations(*run.c);
    }
  }
  const SpanSummary setup = summarize(setup_tracer.spans());
  const SpanSummary win = summarize(window_tracer.spans());
  const double ops = static_cast<double>(tw.seconds.size());
  v["reorder.plan_ms"] = mean_ms(setup, "reorder.plan");
  v["format.build_ms"] = mean_ms(setup, "format.build");
  v["kernel.compute_ms"] = p50_ms(win, "kernel.compute");
  v["kernel.cost_walk_ms"] = p50_ms(win, "kernel.cost_walk");
  v["kernel.cost_walks_per_op"] = ops > 0 ? tw.walks / ops : 0.0;
  v["kernel.run_ms"] = p50_ms(win, "kernel.run");
  for (const LayerSpec& l : kLayers) {
    v[std::string("nn.forward_ms.") + l.name] =
        p50_ms(win, std::string("nn.forward.") + l.name);
  }
  v["nn.quantize_ms"] = p50_ms(win, "nn.quantize");
  add_self_times(v, win, ops);
  const double traced_p50 = 1e3 * median(tw.seconds);
  const double untraced_p50 = 1e3 * median(w.seconds);
  v["trace.overhead_ms"] = traced_p50 - untraced_p50;
  v["trace.overhead_pct"] =
      untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0;
  v["host.steal_pct"] = 100.0 * tw.steal;
  print_layer_table(setup, win, ops, v);
  write_trace(config.trace_out, {&setup_tracer, &window_tracer});
  return r;
}

}  // namespace perfbench
