#include "spgemm/esc_spgemm.hpp"

#include "primitives/tuple_merge.hpp"
#include "spgemm/symbolic.hpp"
#include "util/check.hpp"

namespace hh {

CsrMatrix esc_spgemm(const CsrMatrix& a, const CsrMatrix& b,
                     ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");

  // Expand: one tuple per multiply-add, placed by a per-row flops scan so
  // the expansion parallelizes without synchronization.
  const std::vector<offset_t> flops = row_flops(a, b);
  std::vector<offset_t> offset(flops.size() + 1, 0);
  for (std::size_t i = 0; i < flops.size(); ++i) {
    offset[i + 1] = offset[i] + flops[i];
  }
  CooMatrix expanded(a.rows, b.cols);
  expanded.r.resize(static_cast<std::size_t>(offset.back()));
  expanded.c.resize(expanded.r.size());
  expanded.v.resize(expanded.r.size());
  pool.parallel_for(a.rows, [&](std::int64_t lo, std::int64_t hi) {
    for (index_t i = static_cast<index_t>(lo); i < hi; ++i) {
      offset_t pos = offset[i];
      for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
        const index_t j = a.indices[k];
        const value_t av = a.values[k];
        for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
          expanded.r[pos] = i;
          expanded.c[pos] = b.indices[l];
          expanded.v[pos] = av * b.values[l];
          ++pos;
        }
      }
      HH_DCHECK(pos == offset[i + 1]);
    }
  });

  // Sort + contract: the Phase IV merge is exactly an ESC backend.
  return merged_coo_to_csr(expanded, pool, nullptr);
}

}  // namespace hh
