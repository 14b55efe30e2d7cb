// The library's one SpGEMM kernel: the masked partial product the
// heterogeneous algorithms use to compute A_X × B_Y (X, Y ∈ {H, L}) without
// physically splitting matrices, with the cost statistics the simulated
// devices charge for it. Full products for checking results come from the
// sequential reference in spgemm/gustavson.hpp.
#pragma once

#include <cstdint>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/row_runs.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Cost-relevant statistics of one partial-product kernel invocation.
/// The simulated devices (src/device/) convert these into time; they are
/// exactly the first-order quantities the paper reasons about.
struct ProductStats {
  std::int64_t rows = 0;           // A rows processed (incl. empty results)
  std::int64_t a_nnz = 0;          // A entries visited (after B-mask filter)
  std::int64_t flops = 0;          // multiply-adds
  std::int64_t tuples = 0;         // output tuples emitted
  std::int64_t max_row_flops = 0;  // heaviest single row (GPU serialization)
  std::int64_t warp_alu = 0;       // Σ ceil(len(B_j)/32): warp-instruction count
  std::int64_t flops_shared = 0;   // flops of rows whose accumulator fits
                                   // GPU shared memory (out nnz <= kSharedCap)
  std::int64_t flops_global = 0;   // the rest: PartialOutput in global memory
  std::int64_t b_read_bytes = 0;   // Σ ceil(12·len(B_j)/32)·32: bytes the GPU
                                   // actually moves reading B rows (32-byte
                                   // L2 transactions on Kepler)

  void accumulate(const ProductStats& o);
};

/// Rows whose output fits in a per-warp shared-memory accumulator
/// (K20c: 48 KB/SMX across ~8 resident warps → 512 doubles + indices).
inline constexpr std::int64_t kSharedAccumCap = 512;

/// Runtime value of the shared-accumulator capacity used when classifying
/// rows into flops_shared/flops_global. Defaults to kSharedAccumCap; when
/// experiments run on scaled-down instances the simulated machine is shrunk
/// by the same factor (see device/platform.hpp) so the scaled instance
/// exercises the same shared-vs-global regime as the full-size one.
std::int64_t shared_accum_cap();
void set_shared_accum_cap(std::int64_t cap);

/// Compute tuples of A(rows ∈ a_rows, :) × B restricted to contributions
/// through rows j of B with b_mask[j] == b_mask_value (empty mask = all j),
/// appending one run per listed row, in a_rows order, to `out` (shaped
/// a.rows × b.cols). Each run's columns are ascending and distinct; the
/// output is deterministic and independent of the pool size. When
/// `workspace` is non-null the SPA accumulators and the extra block buffers
/// of a multi-block call are drawn from (and returned to) the pool instead of
/// heap-allocated per call. Output is bit-identical either way.
void partial_product_tuples(const CsrMatrix& a, const CsrMatrix& b,
                            std::span<const index_t> a_rows,
                            std::span<const std::uint8_t> b_mask,
                            bool b_mask_value, ThreadPool& pool,
                            RowRunBuffer& out, ProductStats* stats = nullptr,
                            WorkspacePool* workspace = nullptr);

/// Structure-only estimate of the same invocation (no numeric work):
/// flops/a_nnz/warp_alu/max_row_flops are exact; tuples and the shared/global
/// flops split use the flops upper bound per row. Used by schedulers that
/// must decide *before* computing (paper §III: a-priori work volume is hard).
ProductStats estimate_partial_product(const CsrMatrix& a, const CsrMatrix& b,
                                      std::span<const index_t> a_rows,
                                      std::span<const std::uint8_t> b_mask,
                                      bool b_mask_value);

}  // namespace hh
