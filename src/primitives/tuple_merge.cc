#include "primitives/tuple_merge.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace hh {
namespace {

// One tuple of the row being merged; the row itself is implied.
struct Entry {
  index_t col;
  value_t val;
};

bool col_less(const Entry& a, const Entry& b) { return a.col < b.col; }

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

// One run of an output row, located in its part's buffer.
struct Run {
  const index_t* col = nullptr;
  const value_t* val = nullptr;
  offset_t len = 0;
};

// A run's columns must lie in [0, cols) and ascend strictly.
void check_run(const Run& run, index_t row, index_t cols) {
  index_t prev = -1;
  for (offset_t k = 0; k < run.len; ++k) {
    const index_t c = run.col[k];
    HH_CHECK_MSG(c > prev && c < cols,
                 "run of row " << row << ": column " << c << " after " << prev
                               << " in a matrix of " << cols << " columns");
    prev = c;
  }
}

// A row of more than two runs: its tuples in run order, stably sorted by
// column and summed, as a stable global sort by (r, c) orders them.
offset_t gather_row(const Run* runs, std::size_t n, std::vector<Entry>& tmp) {
  tmp.clear();
  for (const Run* run = runs; run != runs + n; ++run) {
    for (offset_t k = 0; k < run->len; ++k) {
      tmp.push_back({run->col[k], run->val[k]});
    }
  }
  std::stable_sort(tmp.begin(), tmp.end(), col_less);
  return combine_row(tmp.data(), tmp.data() + tmp.size());
}

// Number of distinct columns in a row of `n` runs, checking each run.
offset_t count_row(const Run* runs, std::size_t n, index_t row, index_t cols,
                   std::vector<Entry>& tmp) {
  for (std::size_t i = 0; i < n; ++i) check_run(runs[i], row, cols);
  if (n > 2) return gather_row(runs, n, tmp);
  const Run x = n > 0 ? runs[0] : Run{};
  const Run y = n > 1 ? runs[1] : Run{};
  offset_t i = 0, j = 0, common = 0;
  while (i < x.len && j < y.len) {
    const index_t cx = x.col[i];
    const index_t cy = y.col[j];
    i += cx <= cy;
    j += cy <= cx;
    common += cx == cy;
  }
  return x.len + y.len - common;
}

// Write a row's distinct columns and their sums at `col`/`val`. Each sum
// starts from value_t{0} and adds the row's tuples in run order.
void write_row(const Run* runs, std::size_t n, index_t* col, value_t* val,
               std::vector<Entry>& tmp) {
  if (n > 2) {
    const offset_t distinct = gather_row(runs, n, tmp);
    for (offset_t k = 0; k < distinct; ++k) {
      col[k] = tmp[k].col;
      val[k] = tmp[k].val;
    }
    return;
  }
  const Run x = n > 0 ? runs[0] : Run{};
  const Run y = n > 1 ? runs[1] : Run{};
  offset_t i = 0, j = 0;
  for (; i < x.len && j < y.len; ++col, ++val) {
    if (x.col[i] < y.col[j]) {
      *col = x.col[i];
      *val = value_t{0} + x.val[i++];
    } else if (y.col[j] < x.col[i]) {
      *col = y.col[j];
      *val = value_t{0} + y.val[j++];
    } else {
      *col = x.col[i];
      *val = value_t{0} + x.val[i++] + y.val[j++];
    }
  }
  for (; i < x.len; ++i, ++col, ++val) {
    *col = x.col[i];
    *val = value_t{0} + x.val[i];
  }
  for (; j < y.len; ++j, ++col, ++val) {
    *col = y.col[j];
    *val = value_t{0} + y.val[j];
  }
}

}  // namespace

CsrMatrix merged_runs_to_csr(std::span<const RowRunBuffer* const> parts,
                             ThreadPool& pool, MergeStats* stats) {
  HH_CHECK(!parts.empty());
  const index_t rows = parts.front()->rows;
  const index_t cols = parts.front()->cols;

  // 1. Count the non-empty runs of each row, checking every run's row and
  // extent: O(runs), not O(tuples).
  std::vector<offset_t> run_ptr(static_cast<std::size_t>(rows) + 1, 0);
  std::size_t tuples = 0;
  for (const RowRunBuffer* p : parts) {
    HH_CHECK(p->rows == rows && p->cols == cols);
    HH_CHECK(p->run_row.size() == p->run_end.size() &&
             p->col.size() == p->val.size());
    offset_t begin = 0;
    for (std::size_t k = 0; k < p->runs(); ++k) {
      const index_t r = p->run_row[k];
      HH_CHECK_MSG(r >= 0 && r < rows, "run of row " << r << " outside a "
                                                     << rows << "x" << cols
                                                     << " matrix");
      HH_CHECK(p->run_end[k] >= begin);
      if (p->run_end[k] > begin) ++run_ptr[r + 1];
      begin = p->run_end[k];
    }
    HH_CHECK(begin == static_cast<offset_t>(p->nnz()));
    tuples += p->nnz();
  }
  for (index_t r = 0; r < rows; ++r) run_ptr[r + 1] += run_ptr[r];

  // 2. Each row's runs, in part order and, within a part, in buffer order.
  std::vector<Run> runs(static_cast<std::size_t>(run_ptr[rows]));
  std::vector<offset_t> fill(run_ptr.begin(), run_ptr.end() - 1);
  for (const RowRunBuffer* p : parts) {
    for (std::size_t k = 0; k < p->runs(); ++k) {
      const offset_t begin = p->run_begin(k);
      const offset_t len = p->run_end[k] - begin;
      if (len > 0) {
        runs[fill[p->run_row[k]]++] = {p->col.data() + begin,
                                       p->val.data() + begin, len};
      }
    }
  }

  // 3. Per row: check its runs and count its distinct columns.
  // out.indptr[r + 1] holds row r's count until the scan below.
  CsrMatrix out(rows, cols);
  pool.parallel_for(rows, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<Entry> tmp;
    for (std::int64_t r = lo; r < hi; ++r) {
      out.indptr[r + 1] =
          count_row(runs.data() + run_ptr[r],
                    static_cast<std::size_t>(run_ptr[r + 1] - run_ptr[r]),
                    static_cast<index_t>(r), cols, tmp);
    }
  });
  for (index_t r = 0; r < rows; ++r) out.indptr[r + 1] += out.indptr[r];
  const auto distinct = static_cast<std::size_t>(out.indptr[rows]);
  out.indices.resize(distinct);
  out.values.resize(distinct);

  // 4. Per row: merge its runs straight into the CSR.
  pool.parallel_for(rows, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<Entry> tmp;
    for (std::int64_t r = lo; r < hi; ++r) {
      write_row(runs.data() + run_ptr[r],
                static_cast<std::size_t>(run_ptr[r + 1] - run_ptr[r]),
                out.indices.data() + out.indptr[r],
                out.values.data() + out.indptr[r], tmp);
    }
  });

  if (stats != nullptr) {
    stats->tuples_in = static_cast<std::int64_t>(tuples);
    stats->tuples_out = static_cast<std::int64_t>(distinct);
  }
  return out;
}

}  // namespace hh
