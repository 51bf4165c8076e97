// Compressed Sparse Row format, the input format of the Sputnik baseline
// and the exchange format for unstructured sparse matrices.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/dense.hpp"

namespace jigsaw {

/// CSR matrix over fp16 values with 32-bit indices (DLMC-scale matrices fit
/// comfortably; 32-bit indices halve index bandwidth like real kernels do).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds CSR from a dense matrix, dropping structural zeros.
  static CsrMatrix from_dense(const DenseMatrix<fp16_t>& dense);

  /// Expands back to dense; inverse of from_dense up to zero handling.
  DenseMatrix<fp16_t> to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::uint32_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<fp16_t>& values() const { return values_; }

  /// Number of nonzeros in row r.
  std::uint32_t row_nnz(std::size_t r) const {
    JIGSAW_ASSERT(r < rows_);
    return row_offsets_[r + 1] - row_offsets_[r];
  }

  /// Bytes of the CSR representation (values + indices + offsets).
  std::size_t memory_bytes() const {
    return values_.size() * sizeof(fp16_t) +
           col_indices_.size() * sizeof(std::uint32_t) +
           row_offsets_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_offsets_;  // rows_+1 entries
  std::vector<std::uint32_t> col_indices_;  // nnz entries
  std::vector<fp16_t> values_;              // nnz entries
};

}  // namespace jigsaw
