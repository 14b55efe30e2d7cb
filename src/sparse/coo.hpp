// Coordinate-format matrix: unordered ⟨r, c, v⟩ tuples, as format conversion
// and the expand–sort–contract kernel produce them. The partial products of
// Algorithm HH-CPU (paper §III-D) emit row-run buffers instead
// (sparse/row_runs.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/types.hpp"

namespace hh {

struct CooMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> r;  // row index of each tuple
  std::vector<index_t> c;  // column index of each tuple
  std::vector<value_t> v;  // value of each tuple

  CooMatrix() = default;
  CooMatrix(index_t rows, index_t cols) : rows(rows), cols(cols) {}

  std::size_t nnz() const { return r.size(); }

  void push(index_t row, index_t col, value_t val) {
    r.push_back(row);
    c.push_back(col);
    v.push_back(val);
  }

  void reserve(std::size_t n) {
    r.reserve(n);
    c.reserve(n);
    v.reserve(n);
  }

  /// Throws CheckError if any tuple is out of range or array sizes differ.
  void validate() const;
};

}  // namespace hh
