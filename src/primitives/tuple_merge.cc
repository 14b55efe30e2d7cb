#include "primitives/tuple_merge.hpp"

#include <algorithm>
#include <memory>

#include "util/check.hpp"

namespace hh {
namespace {

// One tuple in its row bucket; the row is implied by the bucket.
struct Entry {
  index_t col;
  value_t val;
};

bool col_less(const Entry& a, const Entry& b) { return a.col < b.col; }

// Rows of at most this many ascending runs are merged run by run. A Phase IV
// row has at most two: one from Phase II and one from the Phase III queue.
constexpr std::size_t kMaxMergeRuns = 4;

// Stable merge of the sorted runs [first, mid) and [mid, last), with the
// left run buffered in `tmp`. Ties take the left entry.
void merge_runs(Entry* first, Entry* mid, Entry* last,
                std::vector<Entry>& tmp) {
  tmp.assign(first, mid);
  const Entry* a = tmp.data();
  const Entry* const a_end = a + tmp.size();
  Entry* b = mid;
  Entry* out = first;
  while (a != a_end && b != last) *out++ = col_less(*b, *a) ? *b++ : *a++;
  std::copy(a, a_end, out);  // what is left of [mid, last) is in place
}

// Stable column order for one row: a sorted row is left as it is, a row of a
// few sorted runs is merged, any other row is stable-sorted.
void order_row(Entry* first, Entry* last, std::vector<Entry>& tmp) {
  if (last - first < 2) return;
  std::size_t runs = 1;
  for (const Entry* e = first + 1; e != last; ++e) runs += e->col < e[-1].col;
  if (runs == 1) return;
  if (runs > kMaxMergeRuns) {
    std::stable_sort(first, last, col_less);
    return;
  }
  Entry* mid = std::is_sorted_until(first, last, col_less);
  while (mid != last) {
    Entry* next = std::is_sorted_until(mid, last, col_less);
    merge_runs(first, mid, next, tmp);
    mid = next;
  }
}

// Sum each run of equal columns from value_t{0} in input order, compacting
// the row to its distinct columns. Returns their number.
offset_t combine_row(Entry* first, Entry* last) {
  Entry* out = first;
  for (const Entry* e = first; e != last;) {
    const index_t col = e->col;
    value_t sum = 0;
    for (; e != last && e->col == col; ++e) sum += e->val;
    *out++ = {col, sum};
  }
  return out - first;
}

}  // namespace

CsrMatrix merged_coo_to_csr(const CooMatrix& coo, MergeStats* stats) {
  return merged_coo_to_csr(coo, ThreadPool::global(), stats);
}

CsrMatrix merged_coo_to_csr(const CooMatrix& coo, ThreadPool& pool,
                            MergeStats* stats) {
  const CooMatrix* parts[] = {&coo};
  return merged_coo_to_csr(parts, pool, stats);
}

CsrMatrix merged_coo_to_csr(std::span<const CooMatrix* const> parts,
                            ThreadPool& pool, MergeStats* stats) {
  HH_CHECK(!parts.empty());
  const index_t rows = parts.front()->rows;
  const index_t cols = parts.front()->cols;

  // 1. Count tuples per row, checking every index on the way.
  std::vector<offset_t> bucket(static_cast<std::size_t>(rows) + 1, 0);
  for (const CooMatrix* p : parts) {
    HH_CHECK(p->rows == rows && p->cols == cols);
    HH_CHECK(p->r.size() == p->c.size() && p->c.size() == p->v.size());
    for (std::size_t i = 0; i < p->nnz(); ++i) {
      const index_t r = p->r[i];
      const index_t c = p->c[i];
      HH_CHECK_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                   "tuple (" << r << ", " << c << ") outside a " << rows
                             << "x" << cols << " matrix");
      ++bucket[r + 1];
    }
  }
  for (index_t r = 0; r < rows; ++r) bucket[r + 1] += bucket[r];
  const auto n = static_cast<std::size_t>(bucket[rows]);

  // 2. Stable scatter into row buckets, part by part.
  auto entries = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<offset_t> fill(bucket.begin(), bucket.end() - 1);
  for (const CooMatrix* p : parts) {
    for (std::size_t i = 0; i < p->nnz(); ++i) {
      entries[fill[p->r[i]]++] = {p->c[i], p->v[i]};
    }
  }

  // 3 + 4. Per row: stable column order, then sum and compact in place.
  // out.indptr[r + 1] holds row r's distinct count until the scan below.
  CsrMatrix out(rows, cols);
  pool.parallel_for(rows, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<Entry> tmp;
    for (std::int64_t r = lo; r < hi; ++r) {
      Entry* first = entries.get() + bucket[r];
      Entry* last = entries.get() + bucket[r + 1];
      order_row(first, last, tmp);
      out.indptr[r + 1] = combine_row(first, last);
    }
  });
  for (index_t r = 0; r < rows; ++r) out.indptr[r + 1] += out.indptr[r];
  const auto distinct = static_cast<std::size_t>(out.indptr[rows]);
  out.indices.resize(distinct);
  out.values.resize(distinct);
  pool.parallel_for(rows, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const Entry* e = entries.get() + bucket[r];
      for (offset_t k = out.indptr[r]; k < out.indptr[r + 1]; ++k, ++e) {
        out.indices[k] = e->col;
        out.values[k] = e->val;
      }
    }
  });

  if (stats != nullptr) {
    stats->tuples_in = static_cast<std::int64_t>(n);
    stats->tuples_out = static_cast<std::int64_t>(distinct);
  }
  return out;
}

}  // namespace hh
