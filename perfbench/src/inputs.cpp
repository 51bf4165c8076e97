#include "inputs.hpp"

#include <cmath>

#include "util.hpp"

namespace perfbench {

namespace {
double g_reference_offset = 0.0;

fp16_t nonzero_fp16(Rng& rng, double lo, double hi) {
  for (;;) {
    const fp16_t v(static_cast<float>(rng.uniform(lo, hi)));
    if (!v.is_zero()) return v;
  }
}
}  // namespace

void set_reference_offset(double offset) { g_reference_offset = offset; }

DenseMatrix<fp16_t> make_pruned_weight(std::size_t rows, std::size_t cols,
                                       double sparsity, std::size_t v,
                                       std::uint64_t seed,
                                       DenseMatrix<std::uint8_t>* mask) {
  Rng rng(seed);
  DenseMatrix<fp16_t> w(rows, cols);
  DenseMatrix<std::uint8_t> m(rows / v, cols);
  for (std::size_t vr = 0; vr < rows / v; ++vr) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform() < sparsity) continue;
      m(vr, c) = 1;
      for (std::size_t r = vr * v; r < (vr + 1) * v; ++r) {
        w(r, c) = nonzero_fp16(rng, -1.0, 1.0);
      }
    }
  }
  if (mask != nullptr) *mask = std::move(m);
  return w;
}

DenseMatrix<fp16_t> make_activations(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix<fp16_t> x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = fp16_t(static_cast<float>(rng.uniform(-0.5, 0.5)));
  }
  return x;
}

RefWeight to_ref(const DenseMatrix<fp16_t>& w) {
  RefWeight r;
  r.rows = w.rows();
  r.cols = w.cols();
  r.row_ptr.reserve(w.rows() + 1);
  r.row_ptr.push_back(0);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      const fp16_t v = w(i, j);
      if (v.is_zero()) continue;
      r.col.push_back(static_cast<std::uint32_t>(j));
      r.val.push_back(static_cast<double>(static_cast<float>(v)));
    }
    r.row_ptr.push_back(static_cast<std::uint32_t>(r.col.size()));
  }
  return r;
}

RefProduct reference_product(const RefWeight& w, const DenseMatrix<fp16_t>& x,
                             const std::vector<float>* bias, Activation act) {
  const std::size_t n = x.cols();
  RefProduct p;
  p.rows = w.rows;
  p.cols = n;
  p.value.assign(w.rows * n, 0.0);
  p.magnitude.assign(w.rows * n, 0.0);
  std::vector<double> xd(x.size()), xa(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    xd[i] = static_cast<double>(static_cast<float>(x.data()[i]));
    xa[i] = std::fabs(xd[i]);
  }
  for (std::size_t r = 0; r < w.rows; ++r) {
    double* out = &p.value[r * n];
    double* mag = &p.magnitude[r * n];
    for (std::uint32_t k = w.row_ptr[r]; k < w.row_ptr[r + 1]; ++k) {
      const double a = w.val[k];
      const double aa = std::fabs(a);
      const double* xr = &xd[w.col[k] * n];
      const double* xar = &xa[w.col[k] * n];
      for (std::size_t j = 0; j < n; ++j) {
        out[j] += a * xr[j];
        mag[j] += aa * xar[j];
      }
    }
    if (bias != nullptr) {
      const double b = (*bias)[r];
      for (std::size_t j = 0; j < n; ++j) {
        out[j] += b;
        mag[j] += std::fabs(b);
      }
    }
    if (act == Activation::kGelu) {
      for (std::size_t j = 0; j < n; ++j) {
        const double v = out[j];
        out[j] = 0.5 * v *
                 (1.0 + std::tanh(0.7978845608028654 *
                                  (v + 0.044715 * v * v * v)));
        mag[j] *= 1.2;  // |gelu'| < 1.13: errors shrink or grow by < 1.2x
      }
    }
  }
  return p;
}

void apply_entry_delta(RefProduct& ref, const DenseMatrix<fp16_t>& x,
                       std::uint32_t row, std::uint32_t col, double old_value,
                       double new_value) {
  const double d = new_value - old_value;
  for (std::size_t j = 0; j < ref.cols; ++j) {
    const double xv = static_cast<double>(static_cast<float>(x(col, j)));
    ref.value[row * ref.cols + j] += d * xv;
    ref.magnitude[row * ref.cols + j] += std::fabs(d * xv);
  }
}

bool matches(const DenseMatrix<float>& c, const RefProduct& ref) {
  if (c.rows() != ref.rows || c.cols() != ref.cols) return false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double got = static_cast<double>(c.data()[i]);
    const double want = ref.value[i] + g_reference_offset;
    if (!(std::fabs(got - want) <= 1e-4 * ref.magnitude[i] + 1e-5)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
