#include "sparse/convert.hpp"

#include <vector>

#include "util/check.hpp"

namespace hh {

CsrMatrix transpose(const CsrMatrix& m) {
  CsrMatrix t(m.cols, m.rows);
  const auto nz = static_cast<std::size_t>(m.nnz());
  t.indices.resize(nz);
  t.values.resize(nz);
  // Counting pass.
  for (std::size_t k = 0; k < nz; ++k) t.indptr[m.indices[k] + 1]++;
  for (index_t c = 0; c < m.cols; ++c) t.indptr[c + 1] += t.indptr[c];
  // Scatter pass: iterating rows in order makes each output row sorted.
  std::vector<offset_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
  for (index_t r = 0; r < m.rows; ++r) {
    for (offset_t k = m.indptr[r]; k < m.indptr[r + 1]; ++k) {
      const offset_t dst = cursor[m.indices[k]]++;
      t.indices[dst] = r;
      t.values[dst] = m.values[k];
    }
  }
  return t;
}

CsrMatrix mask_rows(const CsrMatrix& m, const std::vector<std::uint8_t>& keep) {
  HH_CHECK(keep.size() == static_cast<std::size_t>(m.rows));
  CsrMatrix out(m.rows, m.cols);
  offset_t total = 0;
  for (index_t r = 0; r < m.rows; ++r) {
    if (keep[r]) total += m.row_nnz(r);
  }
  out.indices.reserve(static_cast<std::size_t>(total));
  out.values.reserve(static_cast<std::size_t>(total));
  for (index_t r = 0; r < m.rows; ++r) {
    if (keep[r]) {
      for (offset_t k = m.indptr[r]; k < m.indptr[r + 1]; ++k) {
        out.indices.push_back(m.indices[k]);
        out.values.push_back(m.values[k]);
      }
    }
    out.indptr[r + 1] = static_cast<offset_t>(out.indices.size());
  }
  return out;
}

}  // namespace hh
