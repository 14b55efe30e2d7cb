#include "primitives/tuple_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "sparse/equality.hpp"
#include "test_util.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace hh {
namespace {

// The merge's contract written out the slow way: stable-sort the tuple
// indices by (r, c), then sum each run of equal keys from +0.0 in input
// order.
CsrMatrix reference_merge(const CooMatrix& coo) {
  std::vector<std::size_t> perm(coo.nnz());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
    return coo.r[x] != coo.r[y] ? coo.r[x] < coo.r[y] : coo.c[x] < coo.c[y];
  });
  CsrMatrix out(coo.rows, coo.cols);
  for (std::size_t i = 0; i < perm.size();) {
    const index_t r = coo.r[perm[i]];
    const index_t c = coo.c[perm[i]];
    value_t sum = 0.0;
    for (; i < perm.size() && coo.r[perm[i]] == r && coo.c[perm[i]] == c; ++i) {
      sum += coo.v[perm[i]];
    }
    out.indices.push_back(c);
    out.values.push_back(sum);
    out.indptr[r + 1]++;
  }
  for (index_t r = 0; r < coo.rows; ++r) out.indptr[r + 1] += out.indptr[r];
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

// Tuples of a rows x cols matrix in row order, each row's `per_row` random
// columns ascending; equal columns stay as duplicates unless `distinct`.
CooMatrix sorted_part(index_t rows, index_t cols, int per_row, bool distinct,
                      Xoshiro256& rng) {
  CooMatrix coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    std::vector<index_t> row_cols;
    for (int k = 0; k < per_row; ++k) {
      row_cols.push_back(static_cast<index_t>(rng.below(cols)));
    }
    std::sort(row_cols.begin(), row_cols.end());
    if (distinct) {
      row_cols.erase(std::unique(row_cols.begin(), row_cols.end()),
                     row_cols.end());
    }
    for (const index_t c : row_cols) coo.push(r, c, order_sensitive_value(rng));
  }
  return coo;
}

TEST(TupleMerge, CombinesDuplicates) {
  CooMatrix coo(3, 3);
  coo.push(1, 2, 1.0);
  coo.push(0, 0, 5.0);
  coo.push(1, 2, 2.0);
  coo.push(1, 2, 4.0);
  MergeStats stats;
  const CsrMatrix m = merged_coo_to_csr(coo, &stats);
  m.validate(true);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_EQ(stats.tuples_in, 4);
  EXPECT_EQ(stats.tuples_out, 2);
  EXPECT_DOUBLE_EQ(m.row_values(1)[0], 7.0);
}

TEST(TupleMerge, EmptyInput) {
  CooMatrix coo(5, 5);
  MergeStats stats;
  const CsrMatrix m = merged_coo_to_csr(coo, &stats);
  m.validate();
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(stats.tuples_in, 0);
}

TEST(TupleMerge, MatchesTripletBuilder) {
  Xoshiro256 rng(55);
  CooMatrix coo(30, 30);
  std::vector<index_t> tr, tc;
  std::vector<value_t> tv;
  for (int i = 0; i < 500; ++i) {
    const auto r = static_cast<index_t>(rng.below(30));
    const auto c = static_cast<index_t>(rng.below(30));
    const value_t v = rng.uniform();
    coo.push(r, c, v);
    tr.push_back(r);
    tc.push_back(c);
    tv.push_back(v);
  }
  const CsrMatrix got = merged_coo_to_csr(coo);
  const CsrMatrix want = csr_from_triplets(30, 30, tr, tc, tv);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why)) << why;
}

TEST(TupleMerge, DeterministicAcrossPoolSizes) {
  // 4,000 rows: a 4-thread pool splits the per-row pass into 16 blocks.
  Xoshiro256 rng(66);
  CooMatrix coo(4000, 400);
  for (int i = 0; i < 60000; ++i) {
    coo.push(static_cast<index_t>(rng.below(4000)),
             static_cast<index_t>(rng.below(400)), order_sensitive_value(rng));
  }
  ThreadPool pool1(1), pool4(4);
  const CsrMatrix a = merged_coo_to_csr(coo, pool1);
  const CsrMatrix b = merged_coo_to_csr(coo, pool4);
  expect_bit_identical(a, b);
  expect_bit_identical(reference_merge(coo), b);
}

TEST(TupleMerge, BitIdenticalWithThreeOrMoreDuplicatesPerKey) {
  Xoshiro256 rng(7);
  std::vector<std::pair<index_t, index_t>> keys;
  for (index_t r = 0; r < 300; ++r) {
    for (index_t c = 0; c < 300; c += 1 + static_cast<index_t>(rng.below(40))) {
      const int copies = 3 + static_cast<int>(rng.below(4));
      for (int k = 0; k < copies; ++k) keys.emplace_back(r, c);
    }
  }
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  CooMatrix coo(300, 300);
  for (const auto& [r, c] : keys) coo.push(r, c, order_sensitive_value(rng));
  ThreadPool pool(4);
  expect_bit_identical(reference_merge(coo), merged_coo_to_csr(coo, pool));
}

TEST(TupleMerge, BitIdenticalOnUnsortedAndTwoRunRows) {
  Xoshiro256 rng(8);
  // Two row-sorted parts with overlapping columns: concatenated, every row is
  // two sorted runs, as Phase II plus the Phase III queue produce them.
  CooMatrix coo = sorted_part(500, 200, 12, true, rng);
  coo.append(sorted_part(500, 200, 9, true, rng));
  // Rows 0..99 again, in shuffled column order: many runs per row.
  for (index_t r = 0; r < 100; ++r) {
    for (int k = 0; k < 20; ++k) {
      coo.push(r, static_cast<index_t>(rng.below(200)),
               order_sensitive_value(rng));
    }
  }
  ThreadPool pool(4);
  expect_bit_identical(reference_merge(coo), merged_coo_to_csr(coo, pool));
}

TEST(TupleMerge, BitIdenticalWithEmptyRows) {
  Xoshiro256 rng(9);
  CooMatrix coo(1000, 50);
  for (int i = 0; i < 3000; ++i) {
    // Only every seventh row gets tuples; the first and last rows stay empty.
    const auto r = static_cast<index_t>(7 * (1 + rng.below(141)));
    coo.push(r, static_cast<index_t>(rng.below(50)),
             order_sensitive_value(rng));
  }
  const CsrMatrix got = merged_coo_to_csr(coo);
  EXPECT_EQ(got.row_nnz(0), 0);
  EXPECT_EQ(got.row_nnz(999), 0);
  expect_bit_identical(reference_merge(coo), got);
}

TEST(TupleMerge, SumsStartFromPositiveZero) {
  // 0 + -0.0 == +0.0: a key whose tuples are all -0.0 merges to +0.0.
  CooMatrix coo(2, 4);
  coo.push(0, 3, -0.0);
  coo.push(1, 1, -0.0);
  coo.push(0, 1, 2.0);
  coo.push(1, 1, -0.0);
  const CsrMatrix got = merged_coo_to_csr(coo);
  ASSERT_EQ(got.nnz(), 3);
  EXPECT_FALSE(std::signbit(got.row_values(0)[1]));  // one -0.0
  EXPECT_FALSE(std::signbit(got.row_values(1)[0]));  // -0.0 twice
  expect_bit_identical(reference_merge(coo), got);
}

TEST(TupleMerge, PartsMergeLikeTheirConcatenation) {
  Xoshiro256 rng(10);
  const CooMatrix hh = sorted_part(400, 300, 10, true, rng);
  const CooMatrix ll = sorted_part(400, 300, 40, false, rng);
  const CooMatrix queue = sorted_part(400, 300, 6, true, rng);
  CooMatrix all = hh;
  all.append(ll);
  all.append(queue);
  ThreadPool pool(4);
  const CooMatrix* parts[] = {&hh, &ll, &queue};
  MergeStats part_stats, all_stats;
  const CsrMatrix got = merged_coo_to_csr(parts, pool, &part_stats);
  expect_bit_identical(merged_coo_to_csr(all, pool, &all_stats), got);
  expect_bit_identical(reference_merge(all), got);
  EXPECT_EQ(part_stats.tuples_in, all_stats.tuples_in);
  EXPECT_EQ(part_stats.tuples_out, all_stats.tuples_out);
}

TEST(TupleMerge, RejectsPartsOfDifferentShapes) {
  const CooMatrix a(3, 3), b(3, 4);
  const CooMatrix* parts[] = {&a, &b};
  EXPECT_THROW(merged_coo_to_csr(parts, ThreadPool::global()), CheckError);
}

TEST(TupleMerge, RejectsOutOfRangeTuples) {
  // Negative and one-past-the-end columns, then the same for rows.
  const std::pair<index_t, index_t> bad[] = {{1, -1}, {2, 3}, {-1, 0}, {3, 0}};
  for (const auto& [r, c] : bad) {
    CooMatrix coo(3, 3);
    coo.push(1, 0, 1.0);
    coo.push(r, c, 1.0);
    EXPECT_THROW(merged_coo_to_csr(coo), CheckError) << r << ", " << c;
  }
}

TEST(TupleMerge, OutputSortedWithinRows) {
  CooMatrix coo(2, 10);
  coo.push(0, 9, 1.0);
  coo.push(0, 3, 1.0);
  coo.push(0, 7, 1.0);
  const CsrMatrix m = merged_coo_to_csr(coo);
  m.validate(true);
}

TEST(TupleMerge, PreservesEmptyTrailingRows) {
  CooMatrix coo(10, 10);
  coo.push(0, 0, 1.0);
  const CsrMatrix m = merged_coo_to_csr(coo);
  EXPECT_EQ(m.rows, 10);
  EXPECT_EQ(m.row_nnz(9), 0);
}

}  // namespace
}  // namespace hh
