// Reusable kernel workspaces.
//
// Every partial-product invocation needs a dense SPA accumulator (one value
// + one marker per B column) per block, and row-run tuple buffers: the
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
// marker carries the *current* tag. Tags are (generation, row) pairs packed
// into 64 bits and the generation is bumped on every begin_product(), so a
// stale marker from an earlier product can never alias a row of the current
// one. Pooled and non-pooled runs execute the identical kernel and produce
// bit-identical tuples.
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
  /// needed and invalidates all markers by bumping the generation.
  void begin_product(index_t cols);

  /// Marker tag for row `i` of the current product.
  std::int64_t row_tag(index_t i) const {
    return (generation_ << 32) | static_cast<std::uint32_t>(i);
  }

  std::vector<value_t> acc;           // per-column partial values
  std::vector<std::int64_t> marker;   // per-column tag of the owning row
  std::vector<index_t> cols_touched;  // scratch: columns hit by current row

 private:
  std::int64_t generation_ = 0;
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
