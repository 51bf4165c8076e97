#include "nn/sparse_linear.hpp"

#include "common/error.hpp"

namespace jigsaw::nn {

double Forward::total_us() const {
  double sum = 0.0;
  for (const auto& r : reports) sum += r.duration_us;
  return sum;
}

SparseLinear::SparseLinear(VectorSparseMatrix weights, std::vector<float> bias,
                           Options options)
    : bias_(std::move(bias)), options_(std::move(options)) {
  if (options_.with_bias) {
    JIGSAW_CHECK_MSG(bias_.size() == weights.rows(),
                     "bias size " << bias_.size() << " != out_features "
                                  << weights.rows());
  } else {
    bias_.clear();
  }
  core::EngineOptions::Compile po;
  po.version = options_.version;
  plan_ = core::jigsaw_plan(weights.values(), po);
}

SparseLinear SparseLinear::make_random(std::size_t out_features,
                                       std::size_t in_features,
                                       double sparsity,
                                       std::size_t vector_width,
                                       std::uint64_t seed, Options options) {
  VectorSparseOptions gen;
  gen.rows = out_features;
  gen.cols = in_features;
  gen.sparsity = sparsity;
  gen.vector_width = vector_width;
  gen.seed = seed;
  auto weights = VectorSparseGenerator::generate(gen);
  std::vector<float> bias;
  if (options.with_bias) {
    Rng rng(mix_seed(seed, 0xb1a5));
    bias.resize(out_features);
    for (auto& v : bias) v = rng.uniform(-0.1f, 0.1f);
  }
  return SparseLinear(std::move(weights), std::move(bias),
                      std::move(options));
}

Forward SparseLinear::forward(const DenseMatrix<fp16_t>& x,
                              const gpusim::CostModel& cost_model) const {
  JIGSAW_CHECK_MSG(x.rows() == in_features(),
                   options_.name << ": input has " << x.rows()
                                 << " features, expected " << in_features());
  core::EngineOptions::Run ro;
  ro.epilogue.activation = options_.activation;
  if (!bias_.empty()) ro.epilogue.bias = &bias_;
  auto run = core::jigsaw_run(plan_, x, cost_model, ro);
  Forward fwd{std::move(*run.c), {std::move(run.report)}};
  return fwd;
}

void SequentialModel::add(SparseLinear layer) {
  if (!layers_.empty()) {
    JIGSAW_CHECK_MSG(layers_.back().out_features() == layer.in_features(),
                     "layer " << layer.name() << " expects "
                              << layer.in_features()
                              << " inputs but the previous layer produces "
                              << layers_.back().out_features());
  }
  layers_.push_back(std::move(layer));
}

double SequentialModel::preprocess_seconds() const {
  double sum = 0.0;
  for (const auto& l : layers_) sum += l.preprocess_seconds();
  return sum;
}

Forward SequentialModel::forward(const DenseMatrix<fp16_t>& x,
                                 const gpusim::CostModel& cost_model) const {
  JIGSAW_CHECK_MSG(!layers_.empty(), "empty model");
  Forward out;
  DenseMatrix<fp16_t> current = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Forward step = layers_[i].forward(current, cost_model);
    for (auto& r : step.reports) out.reports.push_back(std::move(r));
    if (i + 1 < layers_.size()) {
      current = quantize_activations(step.activations);
    } else {
      out.activations = std::move(step.activations);
    }
  }
  return out;
}

DenseMatrix<fp16_t> quantize_activations(const DenseMatrix<float>& x) {
  DenseMatrix<fp16_t> q(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    q.data()[i] = fp16_t(x.data()[i]);
  }
  return q;
}

}  // namespace jigsaw::nn
