#include "primitives/tuple_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "test_util.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace hh {
namespace {

// Tuples in input order, as the parts hand them to the merge.
struct Triplets {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> r;
  std::vector<index_t> c;
  std::vector<value_t> v;
};

// The merge's contract written out the slow way: stable-sort the tuple
// indices by (r, c), then sum each run of equal keys from +0.0 in input
// order.
CsrMatrix reference_merge(const Triplets& t) {
  std::vector<std::size_t> perm(t.r.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
    return t.r[x] != t.r[y] ? t.r[x] < t.r[y] : t.c[x] < t.c[y];
  });
  CsrMatrix out(t.rows, t.cols);
  for (std::size_t i = 0; i < perm.size();) {
    const index_t r = t.r[perm[i]];
    const index_t c = t.c[perm[i]];
    value_t sum = 0.0;
    for (; i < perm.size() && t.r[perm[i]] == r && t.c[perm[i]] == c; ++i) {
      sum += t.v[perm[i]];
    }
    out.indices.push_back(c);
    out.values.push_back(sum);
    out.indptr[r + 1]++;
  }
  for (index_t r = 0; r < t.rows; ++r) out.indptr[r + 1] += out.indptr[r];
  return out;
}

// Value bits, so that +0.0 and -0.0 (and any last-bit difference) differ.
std::vector<std::uint64_t> bits(const std::vector<value_t>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](value_t x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

void expect_bit_identical(const CsrMatrix& want, const CsrMatrix& got) {
  EXPECT_EQ(want.rows, got.rows);
  EXPECT_EQ(want.cols, got.cols);
  EXPECT_EQ(want.indptr, got.indptr);
  EXPECT_EQ(want.indices, got.indices);
  EXPECT_EQ(bits(want.values), bits(got.values));
}

// A value whose sum with others depends on the order of summation.
value_t order_sensitive_value(Xoshiro256& rng) {
  const value_t v = rng.uniform() * std::pow(10.0, rng.below(17));
  return rng.below(2) == 0 ? v : -v;
}

// The tuples of `parts`, in part order and run order.
Triplets as_triplets(std::initializer_list<const RowRunBuffer*> parts) {
  Triplets t{(*parts.begin())->rows, (*parts.begin())->cols, {}, {}, {}};
  for (const RowRunBuffer* p : parts) {
    for (std::size_t k = 0; k < p->runs(); ++k) {
      for (offset_t i = p->run_begin(k); i < p->run_end[k]; ++i) {
        t.r.push_back(p->run_row[k]);
        t.c.push_back(p->col[i]);
        t.v.push_back(p->val[i]);
      }
    }
  }
  return t;
}

// A run of `row` holding up to `per_row` random distinct columns, ascending.
void push_run(RowRunBuffer& buf, index_t row, int per_row, Xoshiro256& rng) {
  std::vector<index_t> cols;
  for (int k = 0; k < per_row; ++k) {
    cols.push_back(static_cast<index_t>(rng.below(buf.cols)));
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  for (const index_t c : cols) {
    buf.col.push_back(c);
    buf.val.push_back(order_sensitive_value(rng));
  }
  buf.end_run(row);
}

// One run per listed row, in the listed order.
RowRunBuffer runs_part(index_t rows, index_t cols,
                       const std::vector<index_t>& row_order, int per_row,
                       Xoshiro256& rng) {
  RowRunBuffer buf(rows, cols);
  for (const index_t r : row_order) push_run(buf, r, per_row, rng);
  return buf;
}

// The run merge of `parts` against the reference merge of the same tuples in
// the same order, bit for bit, stats included.
void expect_merges_like_reference(
    std::initializer_list<const RowRunBuffer*> parts, ThreadPool& pool) {
  const std::vector<const RowRunBuffer*> list(parts);
  MergeStats stats;
  const CsrMatrix got = merged_runs_to_csr(list, pool, &stats);
  got.validate(true);
  const Triplets tuples = as_triplets(parts);
  const CsrMatrix want = reference_merge(tuples);
  expect_bit_identical(want, got);
  EXPECT_EQ(stats.tuples_in, static_cast<std::int64_t>(tuples.r.size()));
  EXPECT_EQ(stats.tuples_out, want.nnz());
}

TEST(RunMerge, MatchesReferenceOnPhaseParts) {
  // As HH-CPU emits them: Phase II A_H×B_H over the high rows, A_L×B_L over
  // the low rows, then the queue over every row in unit order (low rows from
  // the front, high rows from the back). Rows hold one or two runs.
  Xoshiro256 rng(10);
  std::vector<index_t> high, low;
  for (index_t r = 0; r < 600; ++r) (r % 5 == 0 ? high : low).push_back(r);
  const RowRunBuffer hh = runs_part(600, 300, high, 40, rng);
  const RowRunBuffer ll = runs_part(600, 300, low, 6, rng);
  std::vector<index_t> queue_rows;
  for (std::size_t i = 0; i < low.size(); i += 16) {
    const std::size_t end = std::min(low.size(), i + 16);
    queue_rows.insert(queue_rows.end(), low.begin() + i, low.begin() + end);
    if (i / 16 < high.size() / 16) {
      const auto unit = high.end() - 16 * static_cast<long>(i / 16 + 1);
      queue_rows.insert(queue_rows.end(), unit, unit + 16);
    }
  }
  const RowRunBuffer queue = runs_part(600, 300, queue_rows, 12, rng);
  ThreadPool pool(4);
  expect_merges_like_reference({&hh, &ll, &queue}, pool);
}

TEST(RunMerge, RowsOfOneTwoAndMoreRuns) {
  Xoshiro256 rng(11);
  RowRunBuffer first(50, 40), second(50, 40);
  for (index_t r = 0; r < 50; ++r) {
    // Row r has r % 7 runs, spread over both parts, some repeated in a part.
    for (int k = 0; k < r % 7; ++k) {
      push_run(k % 3 == 0 ? first : second, r, 10, rng);
    }
  }
  // Every key of `dense` repeats in three to six runs: each run holds every
  // column.
  RowRunBuffer dense(50, 8);
  for (index_t r = 0; r < 50; ++r) {
    for (int k = 0; k < 3 + r % 4; ++k) {
      for (index_t c = 0; c < dense.cols; ++c) {
        dense.col.push_back(c);
        dense.val.push_back(order_sensitive_value(rng));
      }
      dense.end_run(r);
    }
  }
  ThreadPool pool(4);
  expect_merges_like_reference({&first, &second}, pool);
  expect_merges_like_reference({&second, &first}, pool);
  expect_merges_like_reference({&dense}, pool);
}

TEST(RunMerge, EmptyPartsAndEmptyRuns) {
  Xoshiro256 rng(12);
  const RowRunBuffer none(20, 20);
  RowRunBuffer some(20, 20);
  push_run(some, 3, 5, rng);
  some.end_run(3);  // empty run of a row with tuples
  some.end_run(7);  // a row whose only run is empty
  push_run(some, 9, 5, rng);
  RowRunBuffer all_empty(20, 20);
  for (index_t r = 0; r < 20; ++r) all_empty.end_run(r);
  ThreadPool pool(2);
  expect_merges_like_reference({&none, &some, &all_empty}, pool);
  expect_merges_like_reference({&none}, pool);
  expect_merges_like_reference({&all_empty, &none}, pool);
  const RowRunBuffer* parts[] = {&none, &some, &all_empty};
  const CsrMatrix got = merged_runs_to_csr(parts, pool);
  EXPECT_EQ(got.rows, 20);
  EXPECT_EQ(got.row_nnz(0), 0);   // leading empty row
  EXPECT_EQ(got.row_nnz(7), 0);
  EXPECT_EQ(got.row_nnz(19), 0);  // trailing empty row
  EXPECT_EQ(got.nnz(), static_cast<offset_t>(some.nnz()));
}

TEST(RunMerge, SumsStartFromPositiveZero) {
  // 0 + -0.0 == +0.0: one run, two runs and three runs of -0.0 all merge to
  // +0.0; so does a -0.0 next to a non-zero column.
  RowRunBuffer hh(3, 4), queue(3, 4);
  auto run = [](RowRunBuffer& buf, index_t row,
                std::vector<std::pair<index_t, value_t>> tuples) {
    for (const auto& [c, v] : tuples) {
      buf.col.push_back(c);
      buf.val.push_back(v);
    }
    buf.end_run(row);
  };
  run(hh, 0, {{1, 2.0}, {3, -0.0}});
  run(hh, 1, {{1, -0.0}});
  run(queue, 1, {{1, -0.0}, {2, -0.0}});
  run(queue, 2, {{0, -0.0}});
  run(queue, 2, {{0, -0.0}});
  run(queue, 2, {{0, -0.0}});
  const RowRunBuffer* parts[] = {&hh, &queue};
  ThreadPool pool(2);
  const CsrMatrix got = merged_runs_to_csr(parts, pool);
  ASSERT_EQ(got.nnz(), 5);
  for (const value_t v : got.values) {
    EXPECT_FALSE(std::signbit(v)) << v;
  }
  expect_merges_like_reference({&hh, &queue}, pool);
}

TEST(RunMerge, RejectsOutOfRangeRowsAndColumns) {
  // Rows -1 and `rows`, columns -1 and `cols`, in a run of a 3x3 matrix.
  const std::pair<index_t, index_t> bad[] = {{-1, 0}, {3, 0}, {1, -1}, {1, 3}};
  for (const auto& [r, c] : bad) {
    RowRunBuffer ok(3, 3), part(3, 3);
    ok.col = {0, 2};
    ok.val = {1.0, 1.0};
    ok.end_run(1);
    part.col = {c};
    part.val = {1.0};
    part.end_run(r);
    const RowRunBuffer* parts[] = {&ok, &part};
    EXPECT_THROW(merged_runs_to_csr(parts, ThreadPool::global()), CheckError)
        << r << ", " << c;
  }
}

TEST(RunMerge, RejectsMalformedRuns) {
  // Columns out of order or repeated within a run, and run ends that do not
  // cover the tuples.
  const std::vector<index_t> bad_cols[] = {{2, 1}, {1, 1}};
  for (const auto& cols : bad_cols) {
    RowRunBuffer part(3, 3);
    part.col = cols;
    part.val.assign(cols.size(), 1.0);
    part.end_run(0);
    const RowRunBuffer* parts[] = {&part};
    EXPECT_THROW(merged_runs_to_csr(parts, ThreadPool::global()), CheckError);
  }
  RowRunBuffer short_end(3, 3);
  short_end.col = {0, 1};
  short_end.val = {1.0, 1.0};
  short_end.run_row = {0};
  short_end.run_end = {1};
  const RowRunBuffer* parts[] = {&short_end};
  EXPECT_THROW(merged_runs_to_csr(parts, ThreadPool::global()), CheckError);
}

TEST(RunMerge, RejectsPartsOfDifferentShapes) {
  const RowRunBuffer a(3, 3), b(3, 4);
  const RowRunBuffer* parts[] = {&a, &b};
  EXPECT_THROW(merged_runs_to_csr(parts, ThreadPool::global()), CheckError);
}

TEST(RunMerge, DeterministicAcrossPoolSizes) {
  // 4,000 rows: a 4-thread pool splits each per-row pass into 16 blocks.
  Xoshiro256 rng(13);
  std::vector<index_t> order(4000);
  std::iota(order.begin(), order.end(), index_t{0});
  const RowRunBuffer phase2 = runs_part(4000, 400, order, 15, rng);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const RowRunBuffer queue = runs_part(4000, 400, order, 15, rng);
  const RowRunBuffer* parts[] = {&phase2, &queue};
  ThreadPool pool1(1), pool4(4);
  const CsrMatrix a = merged_runs_to_csr(parts, pool1);
  const CsrMatrix b = merged_runs_to_csr(parts, pool4);
  expect_bit_identical(a, b);
  expect_bit_identical(reference_merge(as_triplets({&phase2, &queue})), b);
}

}  // namespace
}  // namespace hh
