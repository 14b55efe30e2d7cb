// Reusable kernel workspaces.
//
// Every partial-product invocation needs a dense SPA accumulator (one value
// and one touched bit per B column) per block, and row-run tuple buffers: the
// caller's part buffer (Phase II A_H×B_H, Phase II A_L×B_L, or the Phase III
// queue) plus one per extra block of a multi-block call. The one-shot driver
// allocates them per call and throws them away; a service runtime executing
// a stream of products over same-shaped matrices would reallocate — and
// re-fault — hundreds of MB per request. WorkspacePool keeps released
// buffers on free lists so steady-state requests run allocation-free
// (paper-adjacent: Liu & Vinter's framework reuses analysis workspaces
// across products for the same reason).
//
// The kernel takes and returns every workspace and block buffer on its
// calling thread, in block order, so the pool's counters depend only on the
// sequence of calls, never on how many pool threads ran at once.
//
// Correctness of SPA reuse: the accumulator is only valid for columns whose
// bit is set in the touched-column bitmap. A row sets a column's bit, and
// zeroes its accumulator, on its first touch of that column, and clears every
// bit it set while it emits its tuples, so the bitmap is all-zero between
// rows, between products and whenever a workspace goes back to the pool; no
// state of an earlier row or product is ever read. (A product that throws
// frees its workspaces instead of releasing them, so a half-emitted row never
// reaches the pool.) Pooled and non-pooled runs execute the identical kernel
// and produce bit-identical tuples.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sparse/row_runs.hpp"
#include "sparse/types.hpp"

namespace hh {

/// Dense-accumulator workspace for the row-row SPA kernel.
class SpaWorkspace {
 public:
  /// Start a new product over a B with `cols` columns: grows the arrays if
  /// needed. The bitmap is already all-zero (see above).
  void begin_product(index_t cols);

  std::vector<value_t> acc;             // per-column partial values
  std::vector<std::uint64_t> touched;   // bit c: column c hit by current row
  std::vector<index_t> cols_touched;    // scratch: columns hit by current row
};

/// Thread-safe pool of SPA workspaces and row-run tuple buffers. Acquire
/// hands out a recycled object when one is free, otherwise a fresh one;
/// release returns the object (buffers intact) to the free list.
class WorkspacePool {
 public:
  struct Stats {
    std::int64_t spa_acquires = 0;
    std::int64_t spa_reuses = 0;  // acquires served from the free list
    std::int64_t coo_acquires = 0;  // row-run tuple buffers (the name and
    std::int64_t coo_reuses = 0;    // JSON key predate the run format)
    std::int64_t spa_live = 0;  // workspaces currently handed out
    std::int64_t coo_live = 0;
  };

  std::unique_ptr<SpaWorkspace> acquire_spa();
  void release_spa(std::unique_ptr<SpaWorkspace> ws);

  /// A RowRunBuffer shaped (rows, cols) with no runs; a recycled buffer
  /// keeps its capacity.
  RowRunBuffer acquire_runs(index_t rows, index_t cols);
  void release_runs(RowRunBuffer&& buf);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpaWorkspace>> free_spa_;
  std::vector<RowRunBuffer> free_runs_;
  Stats stats_;
};

/// `pool->acquire_runs(rows, cols)`, or a fresh buffer when `pool` is null.
RowRunBuffer acquire_runs(WorkspacePool* pool, index_t rows, index_t cols);

/// `pool->release_runs(buf)`; a no-op when `pool` is null.
void release_runs(WorkspacePool* pool, RowRunBuffer&& buf);

}  // namespace hh
