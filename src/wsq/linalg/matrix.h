#ifndef WSQ_LINALG_MATRIX_H_
#define WSQ_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "wsq/common/status.h"

namespace wsq {

/// Small dense row-major matrix of doubles. Sized for the paper's system
/// identification needs (design matrices of ~6x3 and 3x3 normal
/// equations), so it favors clarity over cache blocking.
class Matrix {
 public:
  /// Creates a rows x cols matrix of zeros. Either dimension may be zero.
  Matrix(size_t rows, size_t cols);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  static Matrix Identity(size_t n);

  /// Column vector from values.
  static Matrix ColumnVector(const std::vector<double>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double operator()(size_t r, size_t c) const { return At(r, c); }
  double& operator()(size_t r, size_t c) { return At(r, c); }

  Matrix Transposed() const;

  /// Returns this * other; dimensions must agree (checked via Status).
  Result<Matrix> Multiply(const Matrix& other) const;

  /// Returns this scaled by `factor`.
  Matrix Scaled(double factor) const;

  /// Max absolute entry; 0 for empty matrices.
  double MaxAbs() const;

  /// Extracts column `c` as a flat vector.
  std::vector<double> Column(size_t c) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace wsq

#endif  // WSQ_LINALG_MATRIX_H_
