#include "spgemm/symbolic.hpp"

#include "util/check.hpp"

namespace hh {

std::int64_t total_flops(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  std::int64_t total = 0;
  for (offset_t k = 0; k < a.nnz(); ++k) {
    total += static_cast<std::int64_t>(b.row_nnz(a.indices[k]));
  }
  return total;
}

std::vector<offset_t> exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  std::vector<offset_t> out(static_cast<std::size_t>(a.rows), 0);
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  for (index_t i = 0; i < a.rows; ++i) {
    offset_t count = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t c = b.indices[l];
        if (marker[c] != i) {
          marker[c] = i;
          ++count;
        }
      }
    }
    out[i] = count;
  }
  return out;
}

}  // namespace hh
