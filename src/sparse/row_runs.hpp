// Row-run tuple buffer: the ⟨r, c, v⟩ tuples one part of Algorithm HH-CPU
// emits for Phase IV (paper §III-D), stored one run per A row.
//
// A partial product computes each A row's output once, already sorted, so
// its tuples need no per-tuple row index: a run records its row id once, then
// its distinct columns in ascending order and their values. Phase IV
// (merged_runs_to_csr) merges each output row's runs straight into the CSR.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/types.hpp"

namespace hh {

struct RowRunBuffer {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> run_row;   // row id of each run
  std::vector<offset_t> run_end;  // one past each run's last tuple in col/val
  std::vector<index_t> col;       // columns, ascending and distinct per run
  std::vector<value_t> val;       // value of each tuple

  RowRunBuffer() = default;
  RowRunBuffer(index_t rows, index_t cols) : rows(rows), cols(cols) {}

  std::size_t runs() const { return run_row.size(); }
  std::size_t nnz() const { return col.size(); }
  offset_t run_begin(std::size_t k) const {
    return k == 0 ? 0 : run_end[k - 1];
  }

  /// Close a run of `row` over every tuple appended since the last run.
  void end_run(index_t row) {
    run_row.push_back(row);
    run_end.push_back(static_cast<offset_t>(col.size()));
  }

  /// Append every run of `other`, in order.
  void append(const RowRunBuffer& other) {
    const auto shift = static_cast<offset_t>(col.size());
    run_row.insert(run_row.end(), other.run_row.begin(), other.run_row.end());
    for (const offset_t end : other.run_end) run_end.push_back(shift + end);
    col.insert(col.end(), other.col.begin(), other.col.end());
    val.insert(val.end(), other.val.begin(), other.val.end());
  }

  /// Drop every run, keeping the arrays' capacity.
  void clear() {
    run_row.clear();
    run_end.clear();
    col.clear();
    val.clear();
  }
};

}  // namespace hh
