#include "spgemm/gustavson.hpp"

#include <algorithm>
#include <vector>

#include "spgemm/symbolic.hpp"
#include "util/check.hpp"

namespace hh {

CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  const std::vector<offset_t> row_nnz = exact_row_nnz(a, b);
  for (index_t i = 0; i < a.rows; ++i) {
    c.indptr[i + 1] = c.indptr[i] + row_nnz[i];
  }
  c.indices.resize(static_cast<std::size_t>(c.nnz()));
  c.values.resize(static_cast<std::size_t>(c.nnz()));

  // Numeric pass: SPA accumulate, emit sorted columns at the row's offsets.
  std::vector<value_t> acc(static_cast<std::size_t>(b.cols), value_t{0});
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  std::vector<index_t> cols;
  for (index_t i = 0; i < a.rows; ++i) {
    cols.clear();
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const value_t av = a.values[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        if (marker[col] != i) {
          marker[col] = i;
          acc[col] = value_t{0};
          cols.push_back(col);
        }
        acc[col] += av * b.values[l];
      }
    }
    std::sort(cols.begin(), cols.end());
    HH_DCHECK(static_cast<offset_t>(cols.size()) ==
              c.indptr[i + 1] - c.indptr[i]);
    offset_t dst = c.indptr[i];
    for (const index_t col : cols) {
      c.indices[dst] = col;
      c.values[dst] = acc[col];
      ++dst;
    }
  }
  return c;
}

}  // namespace hh
