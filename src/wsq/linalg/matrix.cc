#include "wsq/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace wsq {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix m(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) m.At(i, 0) = values[i];
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Result<Matrix> Matrix::Multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("matrix multiply dimension mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = At(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out.At(r, c) += a * other.At(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Scaled(double factor) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= factor;
  return out;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::vector<double> Matrix::Column(size_t c) const {
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = At(r, c);
  return out;
}

}  // namespace wsq
