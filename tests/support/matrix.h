#ifndef WSQ_TESTS_SUPPORT_MATRIX_H_
#define WSQ_TESTS_SUPPORT_MATRIX_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "wsq/linalg/matrix.h"

namespace wsq {

/// A matrix written row by row: `MatrixOf({{1, 2}, {3, 4}})`. Every row
/// must be as long as the first; a ragged one aborts, since Matrix::At
/// does not check bounds.
inline Matrix MatrixOf(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.size() == 0 ? 0 : rows.begin()->size());
  size_t r = 0;
  for (const auto& row : rows) {
    if (row.size() != m.cols()) {
      std::fprintf(stderr, "MatrixOf: ragged row %zu\n", r);
      std::abort();
    }
    size_t c = 0;
    for (double v : row) m.At(r, c++) = v;
    ++r;
  }
  return m;
}

}  // namespace wsq

#endif  // WSQ_TESTS_SUPPORT_MATRIX_H_
