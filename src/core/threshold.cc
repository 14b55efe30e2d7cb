#include "core/threshold.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "core/hh_cpu.hpp"
#include "sparse/row_stats.hpp"
#include "util/check.hpp"

namespace hh {

std::vector<offset_t> threshold_candidates(const CsrMatrix& m,
                                           int max_candidates) {
  HH_CHECK(max_candidates >= 2);
  // Degenerate inputs (no rows, no nonzeros) have no row-size range to
  // cover; a minimal two-point grid keeps every sweep well-defined.
  const RowStats s = (m.rows > 0 && m.nnz() > 0) ? row_stats(m) : RowStats{};
  const offset_t lo = std::max<offset_t>(2, s.min + 1);
  const offset_t hi = std::max<offset_t>(lo + 1, s.max + 1);
  std::vector<offset_t> out;
  const double ratio = std::pow(static_cast<double>(hi) /
                                    static_cast<double>(lo),
                                1.0 / (max_candidates - 1));
  double x = static_cast<double>(lo);
  for (int i = 0; i < max_candidates; ++i) {
    const auto t = static_cast<offset_t>(std::llround(x));
    if (out.empty() || t > out.back()) out.push_back(t);
    x *= ratio;
  }
  // All-equal row lengths collapse the log grid onto one point; hi > lo by
  // construction, so the endpoint always yields a second distinct candidate.
  if (out.size() < 2) out.push_back(hi);
  HH_CHECK(out.front() >= 2);
  return out;
}

std::vector<offset_t> threshold_grid(const CsrMatrix& a, const CsrMatrix& b,
                                     int max_candidates) {
  std::vector<offset_t> cand = threshold_candidates(a, max_candidates);
  if (&a != &b) {
    const std::vector<offset_t> cb = threshold_candidates(b, max_candidates);
    cand.insert(cand.end(), cb.begin(), cb.end());
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }
  return cand;
}

namespace {

// Additive fields of the A nonzeros whose A row and B row fall in one pair of
// buckets.
struct Cell {
  std::int64_t a_nnz = 0;
  std::int64_t flops = 0;
  std::int64_t warp_alu = 0;
  std::int64_t b_read_bytes = 0;
};

void add_cell(ProductStats& s, const Cell& c) {
  s.a_nnz += c.a_nnz;
  s.flops += c.flops;
  s.tuples += c.flops;  // upper bound, as in estimate_partial_product
  s.warp_alu += c.warp_alu;
  s.b_read_bytes += c.b_read_bytes;
}

// The cost model: one candidate's statistics to predicted device times.
PredictedBreakdown price(const ThresholdStats& s, const CsrMatrix& a,
                         const CsrMatrix& b, const HeteroPlatform& platform,
                         const CostCorrection& corr) {
  const double ws_bh = 12.0 * static_cast<double>(s.b_high_nnz);
  const double ws_bl = 12.0 * static_cast<double>(s.b_low_nnz);

  // Phase II products (empty sides skipped, as in run_hh_cpu).
  const ProductStats& hh = s.hh;
  const ProductStats& ll = s.ll;
  const double t2_cpu =
      corr.cpu * platform.cpu().kernel_time(hh, ws_bh, true, /*blockable=*/true);
  const double t2_gpu_kernel = corr.gpu * platform.gpu().kernel_time(ll);
  double t2_gpu = t2_gpu_kernel;
  // The GPU only waits for the input transfer if this threshold gives it
  // any work at all; a CPU-only partition skips the link entirely.
  double transfer_in = 0;
  if (ll.flops > 0 || s.a_high_rows < a.rows || s.b_high_rows < b.rows) {
    transfer_in = platform.link().h2d().matrix_transfer_time(a);
    if (&a != &b) transfer_in += platform.link().h2d().matrix_transfer_time(b);
    transfer_in *= corr.h2d;
    t2_gpu += transfer_in;
  }
  const double t2 = HeteroPlatform::overlap(t2_cpu, t2_gpu);

  // Phase III products, shared dynamically: if the CPU alone would take Tc
  // and the GPU alone Tg for the whole phase-III workload, the workqueue
  // approaches the harmonic time Tc·Tg/(Tc+Tg).
  const ProductStats& lh = s.lh;
  const ProductStats& hl = s.hl;
  ProductStats p3 = lh;
  p3.accumulate(hl);
  const double t3_cpu =
      corr.cpu *
      (platform.cpu().kernel_time(lh, ws_bh, true, /*blockable=*/true) +
       platform.cpu().kernel_time(hl, ws_bl, true, /*blockable=*/false));
  const double t3_gpu = corr.gpu * platform.gpu().kernel_time(p3);
  const double t3 = (t3_cpu <= 0 || t3_gpu <= 0)
                        ? std::max(t3_cpu, t3_gpu)
                        : t3_cpu * t3_gpu / (t3_cpu + t3_gpu);

  // Phase IV on the tuple upper bound, plus the GPU→CPU result transfer:
  // tuples produced on the GPU cross PCIe, so giving the CPU work also
  // saves link time — the ranking must see that. The GPU's share of the
  // Phase III tuples is its share of the harmonic split, t3/t3_gpu.
  const std::int64_t tuples = hh.tuples + ll.tuples + p3.tuples;
  const double t4 = corr.cpu * platform.cpu().merge_time(tuples);
  double gpu_tuples = static_cast<double>(ll.tuples);
  if (t3_gpu > 0) gpu_tuples += static_cast<double>(p3.tuples) * t3 / t3_gpu;
  const double t_out =
      corr.d2h * platform.link().d2h().transfer_time(16.0 * gpu_tuples);

  PredictedBreakdown out;
  out.cpu_s = t2_cpu + t3 + t4;
  out.gpu_s = t2_gpu_kernel + t3;
  out.h2d_s = transfer_in;
  out.d2h_s = t_out;
  out.total_s = t2 + t3 + t4 + t_out;
  return out;
}

}  // namespace

std::vector<ThresholdStats> threshold_stats(const CsrMatrix& a,
                                            const CsrMatrix& b,
                                            std::span<const offset_t> grid) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  HH_CHECK(std::adjacent_find(grid.begin(), grid.end(),
                              std::greater_equal<offset_t>()) == grid.end());
  const std::size_t k = grid.size();
  HH_CHECK(k < std::numeric_limits<std::uint16_t>::max());
  // A row of nnz n is high for candidates 0 .. bucket(n)-1 and low for the
  // rest: bucket(n) = |{t ∈ grid : t <= n}|, in [0, k]. Counted without
  // branches: a binary search mispredicts on every row.
  const std::size_t nb = k + 1;
  const auto bucket = [&](offset_t n) {
    std::uint16_t bk = 0;
    for (const offset_t t : grid) bk += t <= n ? 1 : 0;
    return bk;
  };

  std::vector<std::uint16_t> b_bucket(static_cast<std::size_t>(b.rows));
  std::vector<index_t> b_rows_in(nb, 0);
  std::vector<offset_t> b_nnz_in(nb, 0);
  for (index_t j = 0; j < b.rows; ++j) {
    const offset_t n = b.row_nnz(j);
    const std::uint16_t bj = bucket(n);
    b_bucket[j] = bj;
    ++b_rows_in[bj];
    b_nnz_in[bj] += n;
  }

  // One pass over A's nonzeros. The additive fields go to the cell of the
  // (A bucket, B bucket) pair. A row's flops per B bucket, summed over the
  // buckets above each candidate, are its flops through B_H there, and the
  // rest of its flops go through B_L; those give the per-row fields. Per
  // candidate they are kept for the four products in the order
  // {hh, hl, lh, ll}, so a row high at the candidate updates entries 0-1 and
  // a low row entries 2-3. flops_shared is flops − flops_global at the end.
  std::vector<Cell> cells(nb * nb);
  std::vector<index_t> a_rows_in(nb, 0);
  std::vector<std::int64_t> flops_in(nb, 0);
  std::vector<std::array<std::int64_t, 4>> max_flops(k), global_flops(k);
  const std::int64_t cap = shared_accum_cap();
  for (index_t i = 0; i < a.rows; ++i) {
    const std::size_t ai = &a == &b ? b_bucket[i] : bucket(a.row_nnz(i));
    ++a_rows_in[ai];
    Cell* cell_row = cells.data() + ai * nb;
    std::int64_t row_flops = 0;
    for (offset_t p = a.indptr[i]; p < a.indptr[i + 1]; ++p) {
      const index_t j = a.indices[p];
      const std::uint16_t bj = b_bucket[j];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      Cell& c = cell_row[bj];
      ++c.a_nnz;
      c.flops += blen;
      c.warp_alu += (blen + 31) / 32;
      c.b_read_bytes += (blen * 12 + 31) / 32 * 32;
      flops_in[bj] += blen;
      row_flops += blen;
    }
    if (row_flops == 0) continue;  // adds nothing to any per-row field
    // `high` is the row's flops through B rows of bucket > c.
    std::int64_t high = row_flops - flops_in[0];
    flops_in[0] = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const std::int64_t low = row_flops - high;
      const std::size_t at = c < ai ? 0 : 2;
      std::int64_t* m = max_flops[c].data() + at;
      m[0] = std::max(m[0], high);
      m[1] = std::max(m[1], low);
      if (row_flops > cap) {
        std::int64_t* g = global_flops[c].data() + at;
        if (high > cap) g[0] += high;
        if (low > cap) g[1] += low;
      }
      high -= flops_in[c + 1];
      flops_in[c + 1] = 0;
    }
  }

  std::vector<ThresholdStats> out(k);
  for (std::size_t c = 0; c < k; ++c) {
    ThresholdStats& s = out[c];
    ProductStats* prod[4] = {&s.hh, &s.hl, &s.lh, &s.ll};
    for (std::size_t bj = 0; bj < nb; ++bj) {
      const bool b_high = bj > c;
      if (b_high) {
        s.b_high_rows += b_rows_in[bj];
        s.b_high_nnz += b_nnz_in[bj];
      } else {
        s.b_low_nnz += b_nnz_in[bj];
      }
      for (std::size_t ai = 0; ai < nb; ++ai) {
        const bool a_high = ai > c;
        add_cell(*prod[(a_high ? 0 : 2) + (b_high ? 0 : 1)],
                 cells[ai * nb + bj]);
      }
    }
    for (std::size_t ai = c + 1; ai < nb; ++ai) s.a_high_rows += a_rows_in[ai];
    for (std::size_t q = 0; q < 4; ++q) {
      prod[q]->rows = q < 2 ? s.a_high_rows : a.rows - s.a_high_rows;
      prod[q]->max_row_flops = max_flops[c][q];
      prod[q]->flops_global = global_flops[c][q];
      prod[q]->flops_shared = prod[q]->flops - global_flops[c][q];
    }
    // run_hh_cpu skips a product with an empty side; the table does too, so
    // predictions rank thresholds the way the algorithm behaves.
    const bool a_low = s.a_high_rows < a.rows;
    const bool b_low = s.b_high_rows < b.rows;
    if (s.a_high_rows == 0 || s.b_high_rows == 0) s.hh = {};
    if (!a_low || !b_low) s.ll = {};
    if (s.b_high_rows == 0) s.lh = {};
    if (!b_low) s.hl = {};
  }
  return out;
}

PredictedBreakdown predict_breakdown(const CsrMatrix& a, const CsrMatrix& b,
                                     offset_t t,
                                     const HeteroPlatform& platform,
                                     const CostCorrection& corr) {
  const offset_t grid[] = {t};
  return price(threshold_stats(a, b, grid).front(), a, b, platform, corr);
}

double predict_total_time(const CsrMatrix& a, const CsrMatrix& b, offset_t t,
                          const HeteroPlatform& platform,
                          const CostCorrection& corr) {
  return predict_breakdown(a, b, t, platform, corr).total_s;
}

ThresholdSweep sweep_thresholds(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                const CostCorrection& corr) {
  ThresholdSweep sweep;
  sweep.grid = threshold_grid(a, b);
  HH_CHECK(!sweep.grid.empty());
  const std::vector<ThresholdStats> table = threshold_stats(a, b, sweep.grid);
  sweep.predicted_s.reserve(sweep.grid.size());
  for (std::size_t i = 0; i < sweep.grid.size(); ++i) {
    sweep.predicted_s.push_back(price(table[i], a, b, platform, corr).total_s);
    if (sweep.predicted_s[i] < sweep.predicted_s[sweep.best]) sweep.best = i;
  }
  return sweep;
}

ThresholdChoice pick_threshold_analytic(const CsrMatrix& a,
                                        const CsrMatrix& b,
                                        const HeteroPlatform& platform,
                                        const CostCorrection& corr) {
  const ThresholdChoice best = sweep_thresholds(a, b, platform, corr).choice();
  HH_CHECK(best.predicted_s >= 0);
  return best;
}

ThresholdChoice pick_threshold_empirical(const CsrMatrix& a,
                                         const CsrMatrix& b,
                                         const HeteroPlatform& platform,
                                         ThreadPool& pool) {
  const std::vector<offset_t> cand = threshold_grid(a, b);

  ThresholdChoice best;
  best.predicted_s = -1;
  for (const offset_t t : cand) {
    HhCpuOptions options;
    options.threshold_a = t;
    options.threshold_b = t;
    const RunResult run = run_hh_cpu(a, b, options, platform, pool);
    if (best.predicted_s < 0 || run.report.total_s < best.predicted_s) {
      best.t = t;
      best.predicted_s = run.report.total_s;
    }
  }
  HH_CHECK(best.predicted_s >= 0);
  return best;
}

}  // namespace hh
