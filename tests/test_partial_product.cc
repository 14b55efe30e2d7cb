// The masked partial-product kernel is the numeric heart of HH-CPU: these
// tests pin down the decomposition identity (the four partial products merge
// to the full product) and the statistics the device models consume.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "primitives/tuple_merge.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

std::vector<index_t> all_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

// The runs of one masked product in a fresh buffer.
RowRunBuffer product_runs(const CsrMatrix& a, const CsrMatrix& b,
                          std::span<const index_t> rows,
                          std::span<const std::uint8_t> mask, bool mask_value,
                          ThreadPool& pool, ProductStats* stats) {
  RowRunBuffer out(a.rows, b.cols);
  partial_product_tuples(a, b, rows, mask, mask_value, pool, out, stats);
  return out;
}

CsrMatrix merge(const RowRunBuffer& runs) {
  const RowRunBuffer* parts[] = {&runs};
  return merged_runs_to_csr(parts, ThreadPool::global());
}

// A CSR matrix from its rows' (column, value) lists, columns ascending.
using Row = std::vector<std::pair<index_t, value_t>>;
CsrMatrix from_rows(index_t cols, const std::vector<Row>& rows) {
  CsrMatrix m(static_cast<index_t>(rows.size()), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const auto& [c, v] : rows[r]) {
      m.indices.push_back(c);
      m.values.push_back(v);
    }
    m.indptr[r + 1] = static_cast<offset_t>(m.indices.size());
  }
  m.validate(true);
  return m;
}

// The runs of the full product A×B against the sequential reference, bit for
// bit: one run per row, the reference row's columns, and the same value bits
// (so a −0.0 or +0.0 cannot hide behind operator==).
void expect_runs_match_gustavson(const CsrMatrix& a, const CsrMatrix& b,
                                 ThreadPool& pool,
                                 WorkspacePool* ws = nullptr) {
  RowRunBuffer runs = acquire_runs(ws, a.rows, b.cols);
  partial_product_tuples(a, b, all_rows(a.rows), {}, true, pool, runs,
                         nullptr, ws);
  const CsrMatrix want = gustavson_spgemm(a, b);
  EXPECT_EQ(runs.run_row, all_rows(a.rows));
  EXPECT_EQ(runs.run_end, std::vector<offset_t>(want.indptr.begin() + 1,
                                                want.indptr.end()));
  EXPECT_EQ(runs.col, want.indices);
  ASSERT_EQ(runs.val.size(), want.values.size());
  for (std::size_t k = 0; k < runs.val.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(runs.val[k]),
              std::bit_cast<std::uint64_t>(want.values[k]))
        << "tuple " << k << " (column " << runs.col[k] << ")";
  }
  release_runs(ws, std::move(runs));
}

// Every SPA workspace in `ws` is back with an all-zero touched bitmap.
void expect_pooled_bitmaps_clear(WorkspacePool& ws) {
  std::vector<std::unique_ptr<SpaWorkspace>> spas;
  const WorkspacePool::Stats st = ws.stats();
  for (std::int64_t k = 0; k < st.spa_acquires - st.spa_reuses; ++k) {
    spas.push_back(ws.acquire_spa());
    for (const std::uint64_t word : spas.back()->touched) EXPECT_EQ(word, 0u);
  }
  for (auto& spa : spas) ws.release_spa(std::move(spa));
}

TEST(PartialProduct, UnmaskedEqualsFullProduct) {
  const CsrMatrix a = test::random_csr(25, 20, 0.25, 301);
  const CsrMatrix b = test::random_csr(20, 22, 0.3, 302);
  ThreadPool pool(2);
  ProductStats stats;
  const RowRunBuffer runs =
      product_runs(a, b, all_rows(a.rows), {}, true, pool, &stats);
  const CsrMatrix got = merge(runs);
  const CsrMatrix want = gustavson_spgemm(a, b);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why)) << why;
  EXPECT_EQ(stats.flops, total_flops(a, b));
  EXPECT_EQ(stats.rows, a.rows);
  EXPECT_EQ(stats.a_nnz, a.nnz());
  EXPECT_EQ(stats.tuples, static_cast<std::int64_t>(runs.nnz()));
  // One run per listed row, in order.
  EXPECT_EQ(runs.run_row, all_rows(a.rows));
}

class DecompositionTest : public testing::TestWithParam<offset_t> {};

TEST_P(DecompositionTest, FourPartialProductsMergeToFullProduct) {
  // The algebraic core of Algorithm HH-CPU (paper Fig. 3): C is the sum of
  // A_H×B_H + A_L×B_L + A_H×B_L + A_L×B_H, for any threshold.
  const offset_t t = GetParam();
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 401);
  ThreadPool pool(2);
  const RowPartition p = classify_rows(a, t);

  // Each product appends its runs to the one buffer.
  RowRunBuffer all(a.rows, a.cols);
  for (const bool a_high : {true, false}) {
    for (const bool b_high : {true, false}) {
      const auto& rows = a_high ? p.high_rows : p.low_rows;
      partial_product_tuples(a, a, rows, p.is_high, b_high, pool, all);
    }
  }
  const CsrMatrix got = merge(all);
  const CsrMatrix want = gustavson_spgemm(a, a);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why))
      << "t=" << t << ": " << why;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DecompositionTest,
                         testing::Values(0, 1, 3, 5, 8, 1000));

TEST(PartialProduct, StatsSplitConsistent) {
  const CsrMatrix a = test::random_csr(40, 40, 0.15, 402);
  ThreadPool pool(2);
  ProductStats stats;
  product_runs(a, a, all_rows(a.rows), {}, true, pool, &stats);
  EXPECT_EQ(stats.flops_shared + stats.flops_global, stats.flops);
  EXPECT_LE(stats.max_row_flops, stats.flops);
  EXPECT_GE(stats.warp_alu, stats.flops / 32);
  EXPECT_GE(stats.b_read_bytes, 12 * stats.flops);
}

TEST(PartialProduct, MaskedStatsAddUpToUnmasked) {
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 403);
  ThreadPool pool(2);
  const RowPartition p = classify_rows(a, 5);
  ProductStats hi, lo, full;
  product_runs(a, a, all_rows(a.rows), p.is_high, true, pool, &hi);
  product_runs(a, a, all_rows(a.rows), p.is_high, false, pool, &lo);
  product_runs(a, a, all_rows(a.rows), {}, true, pool, &full);
  EXPECT_EQ(hi.flops + lo.flops, full.flops);
  EXPECT_EQ(hi.a_nnz + lo.a_nnz, full.a_nnz);
}

TEST(PartialProduct, DeterministicAcrossPoolSizes) {
  const CsrMatrix a = test::random_csr(35, 35, 0.2, 404);
  ThreadPool pool1(1), pool4(4);
  const RowRunBuffer x =
      product_runs(a, a, all_rows(a.rows), {}, true, pool1, nullptr);
  const RowRunBuffer y =
      product_runs(a, a, all_rows(a.rows), {}, true, pool4, nullptr);
  EXPECT_EQ(x.run_row, y.run_row);
  EXPECT_EQ(x.run_end, y.run_end);
  EXPECT_EQ(x.col, y.col);
  EXPECT_EQ(x.val, y.val);
}

TEST(PartialProduct, PooledRunsMatchAndPoolCountersFollowTheCalls) {
  // 35 rows on a 4-thread pool: 12 blocks of 3 rows. Each call takes one SPA
  // workspace per block and one buffer per block after the first, all on the
  // calling thread, so the counters are fixed by the call sequence.
  const CsrMatrix a = test::random_csr(35, 35, 0.2, 408);
  ThreadPool pool(4);
  WorkspacePool ws;
  const RowRunBuffer plain =
      product_runs(a, a, all_rows(a.rows), {}, true, pool, nullptr);
  for (int call = 1; call <= 3; ++call) {
    RowRunBuffer pooled = ws.acquire_runs(a.rows, a.cols);
    partial_product_tuples(a, a, all_rows(a.rows), {}, true, pool, pooled,
                           nullptr, &ws);
    EXPECT_EQ(pooled.run_row, plain.run_row);
    EXPECT_EQ(pooled.run_end, plain.run_end);
    EXPECT_EQ(pooled.col, plain.col);
    EXPECT_EQ(pooled.val, plain.val);
    ws.release_runs(std::move(pooled));
    const WorkspacePool::Stats st = ws.stats();
    EXPECT_EQ(st.spa_acquires, 12 * call);
    EXPECT_EQ(st.spa_reuses, 12 * (call - 1));
    EXPECT_EQ(st.coo_acquires, 12 * call);  // the caller's buffer + 11 blocks
    EXPECT_EQ(st.coo_reuses, 12 * (call - 1));
    EXPECT_EQ(st.spa_live, 0);
    EXPECT_EQ(st.coo_live, 0);
  }
}

TEST(PartialProduct, BitmapScanAndSortPathsMatchReference) {
  // A row emits by scanning its bitmap words when its n columns span at most
  // n·bit_width(n) words, and by sorting its column list otherwise.
  const index_t cols = 64 * 40 + 5;
  Row wide_block, overlap;
  for (index_t c = 100; c < 400; ++c) wide_block.push_back({c, 1.0 + c / 4.0});
  for (index_t c = 150; c <= 160; ++c) overlap.push_back({c, 0.1 * c});
  const CsrMatrix b = from_rows(cols, {
      wide_block,                                // 300 columns in 6 words
      {{7, 1.5}, {1300, -2.0}, {2560, 3.0}},     // 3 columns over 41 words
      overlap,
      {{cols - 1, 0.5}},
  });
  const CsrMatrix a = from_rows(4, {
      {{0, 2.0}, {2, -1.0}},  // n = 300 in 6 words: scan
      {{1, 1.0}},             // n = 3 over 41 words: sort
      {},                     // no tuples
      {{1, 1.0}, {3, 0.5}},   // n = 4 over 41 words: sort
      {{3, 4.0}},             // n = 1 in 1 word: scan
      {{0, 1.0}, {1, -1.0}},  // n = 303 over 41 words: scan
  });
  // Pooled workspaces carry each row's bitmap into the next call, so a row
  // that left a bit set would corrupt the repeat.
  WorkspacePool ws;
  for (const std::size_t threads : {1u, 4u, 1u}) {
    ThreadPool pool(threads);
    expect_runs_match_gustavson(a, b, pool, &ws);
  }
  expect_pooled_bitmaps_clear(ws);
}

TEST(PartialProduct, ColumnsAtWordBoundariesMatchReference) {
  // Columns 63 and 64 sit on either side of a bitmap word boundary, and
  // b.cols - 1 in the last, partly used word. The narrow B is scanned; the
  // wide one spreads the same three columns thin enough to be sorted.
  for (const index_t cols : {index_t{130}, index_t{64 * 20 + 7}}) {
    const CsrMatrix b = from_rows(cols, {
        {{63, 1.0}, {64, 2.0}, {cols - 1, 3.0}},
        {{0, 0.5}, {63, -1.0}, {64, 0.25}, {cols - 2, 4.0}, {cols - 1, 1.0}},
    });
    const CsrMatrix a = from_rows(2, {
        {{0, 1.0}},
        {{0, 1.5}, {1, -2.0}},
        {{1, 3.0}},
    });
    ThreadPool pool(1);
    WorkspacePool ws;
    expect_runs_match_gustavson(a, b, pool, &ws);
    expect_runs_match_gustavson(a, b, pool, &ws);
    expect_pooled_bitmaps_clear(ws);
  }
}

TEST(PartialProduct, NegativeZeroTermsKeepTheReferenceBits) {
  // Every term of column 3 is −0.0 and column 5 cancels exactly; the kernel
  // starts each column's sum at +0.0 and adds in k order, as the reference
  // does, so the stored bits agree.
  const CsrMatrix b = from_rows(8, {
      {{3, -0.0}, {5, 1.0}},
      {{3, -0.0}, {5, -1.0}},
  });
  const CsrMatrix a = from_rows(2, {
      {{0, 1.0}, {1, 1.0}},
      {{0, -1.0}},
      {{1, 2.0}},
  });
  ThreadPool pool(1);
  expect_runs_match_gustavson(a, b, pool);
}

TEST(PartialProduct, PooledWorkspaceReusedAcrossWidths) {
  // One pool serves a wide B, a narrower one and the wide one again: each
  // product must match the reference, and every workspace must come back
  // with an all-zero bitmap.
  const CsrMatrix a = test::random_csr(24, 20, 0.3, 409);
  const CsrMatrix wide = test::random_csr(20, 1000, 0.05, 410);
  const CsrMatrix narrow = test::random_csr(20, 70, 0.2, 411);
  ThreadPool pool(1);
  WorkspacePool ws;
  for (const CsrMatrix* b : {&wide, &narrow, &wide}) {
    expect_runs_match_gustavson(a, *b, pool, &ws);
  }
  EXPECT_GT(ws.stats().spa_reuses, 0);
  expect_pooled_bitmaps_clear(ws);
}

TEST(PartialProduct, EstimateIsExactOnFlopsAndUpperBoundOnTuples) {
  const CsrMatrix a = test::random_csr(30, 30, 0.25, 405);
  ThreadPool pool(2);
  ProductStats actual;
  product_runs(a, a, all_rows(a.rows), {}, true, pool, &actual);
  const ProductStats est =
      estimate_partial_product(a, a, all_rows(a.rows), {}, true);
  EXPECT_EQ(est.flops, actual.flops);
  EXPECT_EQ(est.a_nnz, actual.a_nnz);
  EXPECT_EQ(est.warp_alu, actual.warp_alu);
  EXPECT_EQ(est.b_read_bytes, actual.b_read_bytes);
  EXPECT_EQ(est.max_row_flops, actual.max_row_flops);
  EXPECT_GE(est.tuples, actual.tuples);
}

TEST(PartialProduct, EmptyRowList) {
  const CsrMatrix a = test::random_csr(10, 10, 0.3, 406);
  ThreadPool pool(2);
  ProductStats stats;
  const RowRunBuffer runs = product_runs(a, a, {}, {}, true, pool, &stats);
  EXPECT_EQ(runs.nnz(), 0u);
  EXPECT_EQ(runs.runs(), 0u);
  EXPECT_EQ(stats.rows, 0);
  EXPECT_EQ(stats.flops, 0);
}

TEST(PartialProduct, SharedAccumCapKnob) {
  const std::int64_t original = shared_accum_cap();
  set_shared_accum_cap(1);
  EXPECT_EQ(shared_accum_cap(), 1);
  const CsrMatrix a = test::random_csr(20, 20, 0.4, 407);
  ThreadPool pool(2);
  ProductStats stats;
  product_runs(a, a, all_rows(a.rows), {}, true, pool, &stats);
  // With cap 1 nearly everything lands on the global path.
  EXPECT_GT(stats.flops_global, stats.flops_shared);
  set_shared_accum_cap(original);
  EXPECT_THROW(set_shared_accum_cap(0), CheckError);
}

}  // namespace
}  // namespace hh
