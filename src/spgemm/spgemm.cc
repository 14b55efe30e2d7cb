#include "spgemm/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace hh {
namespace {
std::atomic<std::int64_t> g_shared_cap{kSharedAccumCap};
}  // namespace

std::int64_t shared_accum_cap() {
  return g_shared_cap.load(std::memory_order_relaxed);
}

void set_shared_accum_cap(std::int64_t cap) {
  HH_CHECK(cap >= 1);
  g_shared_cap.store(cap, std::memory_order_relaxed);
}

void ProductStats::accumulate(const ProductStats& o) {
  rows += o.rows;
  a_nnz += o.a_nnz;
  flops += o.flops;
  tuples += o.tuples;
  max_row_flops = std::max(max_row_flops, o.max_row_flops);
  warp_alu += o.warp_alu;
  flops_shared += o.flops_shared;
  flops_global += o.flops_global;
  b_read_bytes += o.b_read_bytes;
}

namespace {

// Appends the current row's tuples to `out` in ascending column order and
// clears the row's bits in `touched`. A row whose n touched columns span at
// most n·bit_width(n) bitmap words reads them back from the bitmap, word by
// word; a row spread thinner sorts its short column list instead. Both ways
// emit the same tuples, so the choice cannot change a bit of the output.
void emit_row(std::vector<index_t>& cols, std::uint64_t* touched,
              const value_t* acc, RowRunBuffer& out) {
  const std::size_t n = cols.size();
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(cols.begin(), cols.end());
  const auto w_lo = static_cast<std::size_t>(*lo) / 64;
  const auto w_hi = static_cast<std::size_t>(*hi) / 64;
  const std::size_t base = out.col.size();
  out.col.resize(base + n);
  out.val.resize(base + n);
  index_t* col_out = out.col.data() + base;
  value_t* val_out = out.val.data() + base;
  if (w_hi - w_lo + 1 <= n * std::bit_width(n)) {
    for (std::size_t w = w_lo; w <= w_hi; ++w) {
      std::uint64_t bits = touched[w];
      touched[w] = 0;
      while (bits != 0) {
        const auto col = static_cast<index_t>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        *col_out++ = col;
        *val_out++ = acc[col];
      }
    }
  } else {
    std::sort(cols.begin(), cols.end());
    for (const index_t col : cols) {
      touched[static_cast<std::size_t>(col) / 64] = 0;
      *col_out++ = col;
      *val_out++ = acc[col];
    }
  }
}

// Per-block worker: SPA-accumulate the assigned a_rows slice, appending one
// run per row to `out` and aggregating stats.
void partial_rows(const CsrMatrix& a, const CsrMatrix& b,
                  std::span<const index_t> a_rows,
                  std::span<const std::uint8_t> b_mask, bool b_mask_value,
                  std::size_t lo, std::size_t hi, SpaWorkspace& ws,
                  RowRunBuffer& out, ProductStats& stats) {
  ws.begin_product(b.cols);
  value_t* acc = ws.acc.data();
  std::uint64_t* touched = ws.touched.data();
  std::vector<index_t>& cols = ws.cols_touched;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const index_t i = a_rows[idx];
    cols.clear();
    std::int64_t row_flops = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      if (!b_mask.empty() && (b_mask[j] != 0) != b_mask_value) continue;
      ++stats.a_nnz;
      const value_t av = a.values[k];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      row_flops += blen;
      stats.warp_alu += (blen + 31) / 32;
      stats.b_read_bytes += (blen * 12 + 31) / 32 * 32;
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        std::uint64_t& word = touched[static_cast<std::size_t>(col) / 64];
        const std::uint64_t bit = std::uint64_t{1} << (col % 64);
        if ((word & bit) == 0) {
          word |= bit;
          acc[col] = value_t{0};
          cols.push_back(col);
        }
        acc[col] += av * b.values[l];
      }
    }
    emit_row(cols, touched, acc, out);
    out.end_run(i);

    ++stats.rows;
    stats.flops += row_flops;
    stats.tuples += static_cast<std::int64_t>(cols.size());
    stats.max_row_flops = std::max(stats.max_row_flops, row_flops);
    if (static_cast<std::int64_t>(cols.size()) <= shared_accum_cap()) {
      stats.flops_shared += row_flops;
    } else {
      stats.flops_global += row_flops;
    }
  }
}

}  // namespace

void partial_product_tuples(const CsrMatrix& a, const CsrMatrix& b,
                            std::span<const index_t> a_rows,
                            std::span<const std::uint8_t> b_mask,
                            bool b_mask_value, ThreadPool& pool,
                            RowRunBuffer& out, ProductStats* stats,
                            WorkspacePool* workspace) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  HH_CHECK(b_mask.empty() ||
           b_mask.size() == static_cast<std::size_t>(b.rows));
  HH_CHECK(out.rows == a.rows && out.cols == b.cols);

  const auto n = static_cast<std::int64_t>(a_rows.size());
  const std::int64_t blocks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(
                                    n, static_cast<std::int64_t>(pool.size()) *
                                           4));
  const std::int64_t chunk = n == 0 ? 1 : (n + blocks - 1) / blocks;
  const std::int64_t nblocks = n == 0 ? 0 : (n + chunk - 1) / chunk;

  // Every workspace and block buffer is taken here, on the calling thread in
  // block order, and handed back the same way below, so the pool's counters
  // do not depend on how many pool threads ran at once. Block 0 writes
  // straight into `out`; each later block fills its own buffer, appended in
  // block order → output independent of the number of pool threads.
  std::vector<std::unique_ptr<SpaWorkspace>> spa;
  std::vector<RowRunBuffer> later;
  for (std::int64_t blk = 0; blk < nblocks; ++blk) {
    spa.push_back(workspace != nullptr ? workspace->acquire_spa()
                                       : std::make_unique<SpaWorkspace>());
    if (blk > 0) later.push_back(acquire_runs(workspace, a.rows, b.cols));
  }
  std::vector<ProductStats> block_stats(static_cast<std::size_t>(nblocks));

  pool.parallel_for(nblocks, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const auto lo = static_cast<std::size_t>(blk * chunk);
      const auto hi = static_cast<std::size_t>(std::min(n, (blk + 1) * chunk));
      partial_rows(a, b, a_rows, b_mask, b_mask_value, lo, hi, *spa[blk],
                   blk == 0 ? out : later[blk - 1], block_stats[blk]);
    }
  });

  ProductStats agg;
  for (const ProductStats& s : block_stats) agg.accumulate(s);
  for (RowRunBuffer& buf : later) out.append(buf);
  if (workspace != nullptr) {
    for (auto& ws : spa) workspace->release_spa(std::move(ws));
    for (RowRunBuffer& buf : later) workspace->release_runs(std::move(buf));
  }
  if (stats != nullptr) *stats = agg;
}

ProductStats estimate_partial_product(const CsrMatrix& a, const CsrMatrix& b,
                                      std::span<const index_t> a_rows,
                                      std::span<const std::uint8_t> b_mask,
                                      bool b_mask_value) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  ProductStats s;
  for (const index_t i : a_rows) {
    std::int64_t row_flops = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      if (!b_mask.empty() && (b_mask[j] != 0) != b_mask_value) continue;
      ++s.a_nnz;
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      row_flops += blen;
      s.warp_alu += (blen + 31) / 32;
      s.b_read_bytes += (blen * 12 + 31) / 32 * 32;
    }
    ++s.rows;
    s.flops += row_flops;
    s.tuples += row_flops;  // upper bound: no cancellation information
    s.max_row_flops = std::max(s.max_row_flops, row_flops);
    if (row_flops <= shared_accum_cap()) {
      s.flops_shared += row_flops;
    } else {
      s.flops_global += row_flops;
    }
  }
  return s;
}

}  // namespace hh
