// Seeded inputs and the benchmark's own fp64 reference products.
//
// The program under test receives only the matrices and activations
// generated here; the correctness check never asks the library for its
// answer a second way.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/dense.hpp"

namespace perfbench {

using jigsaw::DenseMatrix;
using jigsaw::fp16_t;

/// Vector-pruned weight: each v x 1 column vector survives with
/// probability 1 - sparsity and is then fully populated with nonzero
/// values uniform in [-1, 1]. `mask` (optional) receives the
/// (rows / v) x cols vector mask.
DenseMatrix<fp16_t> make_pruned_weight(std::size_t rows, std::size_t cols,
                                       double sparsity, std::size_t v,
                                       std::uint64_t seed,
                                       DenseMatrix<std::uint8_t>* mask = nullptr);

/// Activations uniform in [-0.5, 0.5].
DenseMatrix<fp16_t> make_activations(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed);

/// A weight in CSR with fp64 values: the reference's own copy.
struct RefWeight {
  std::size_t rows = 0, cols = 0;
  std::vector<std::uint32_t> row_ptr, col;
  std::vector<double> val;
};
RefWeight to_ref(const DenseMatrix<fp16_t>& w);

/// fp64 product plus, per entry, the sum of |a||b| (and |bias|) that
/// scales the tolerance of a float-accumulated result.
struct RefProduct {
  std::size_t rows = 0, cols = 0;
  std::vector<double> value, magnitude;
};

enum class Activation { kNone, kGelu };

/// act(W x + bias) in fp64; bias may be null.
RefProduct reference_product(const RefWeight& w, const DenseMatrix<fp16_t>& x,
                             const std::vector<float>* bias = nullptr,
                             Activation act = Activation::kNone);

/// Adds (new - old) * x(col, :) to row `row`: the reference of a
/// value-only weight delta without recomputing the product.
void apply_entry_delta(RefProduct& ref, const DenseMatrix<fp16_t>& x,
                       std::uint32_t row, std::uint32_t col, double old_value,
                       double new_value);

/// |c - ref| <= 1e-4 * magnitude + 1e-5 everywhere. Float accumulation of
/// at most a few hundred exact fp16 products stays two orders of
/// magnitude inside this; one wrong or missing term does not.
bool matches(const DenseMatrix<float>& c, const RefProduct& ref);

/// Self-test hook: shifts every comparison so no product matches.
void set_reference_offset(double offset);

}  // namespace perfbench
