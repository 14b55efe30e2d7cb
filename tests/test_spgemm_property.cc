// Property-based sweep: the sequential reference product and HH-CPU, as the
// service runs it, must agree with the dense reference on a grid of shapes ×
// densities, plus algebraic identities that any correct SpGEMM satisfies.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hh_cpu.hpp"
#include "gen/powerlaw_gen.hpp"
#include "sparse/convert.hpp"
#include "spgemm/gustavson.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

using Shape = std::tuple<int, int, int, double>;  // m, p, n, density

// The products under test. kHhCpu runs Algorithm HH-CPU on a 2-thread pool,
// so every shape reaches partial_product_tuples and merged_runs_to_csr.
enum class Product { kGustavson, kHhCpu };

class SpgemmGrid
    : public testing::TestWithParam<std::tuple<Shape, Product>> {};

TEST_P(SpgemmGrid, MatchesReference) {
  const auto& [shape, product] = GetParam();
  const auto& [m, p, n, density] = shape;
  const CsrMatrix a = test::random_csr(m, p, density, 1000 + m * 7 + p);
  const CsrMatrix b = test::random_csr(p, n, density, 2000 + n * 13 + p);
  if (product == Product::kGustavson) {
    test::expect_matches_reference(a, b, gustavson_spgemm(a, b), "gustavson");
    return;
  }
  ThreadPool pool(2);
  const RunResult res = run_hh_cpu(a, b, {}, HeteroPlatform{}, pool);
  test::expect_matches_reference(a, b, res.c, "hh-cpu");
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndProducts, SpgemmGrid,
    testing::Combine(testing::Values(Shape{1, 1, 1, 1.0}, Shape{1, 8, 1, 0.5},
                                     Shape{8, 1, 8, 0.5}, Shape{16, 16, 16, 0.05},
                                     Shape{16, 16, 16, 0.3},
                                     Shape{33, 17, 9, 0.2},
                                     Shape{9, 17, 33, 0.2},
                                     Shape{40, 40, 40, 0.1}),
                     testing::Values(Product::kGustavson, Product::kHhCpu)));

class AlgebraTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraTest, Associativity) {
  const std::uint64_t seed = GetParam();
  ThreadPool pool(2);
  const CsrMatrix a = test::random_csr(10, 12, 0.3, seed);
  const CsrMatrix b = test::random_csr(12, 9, 0.3, seed + 1);
  const CsrMatrix c = test::random_csr(9, 11, 0.3, seed + 2);
  const CsrMatrix left = gustavson_spgemm(gustavson_spgemm(a, b), c);
  const CsrMatrix right = gustavson_spgemm(a, gustavson_spgemm(b, c));
  // (AB)C and A(BC) agree where nonzero; both may carry explicit zeros from
  // cancellation, so compare after dropping tiny values.
  std::string why;
  EXPECT_TRUE(approx_equal(drop_small(left, 1e-12), drop_small(right, 1e-12),
                           1e-6, &why))
      << why;
}

TEST_P(AlgebraTest, TransposeAntiHomomorphism) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = test::random_csr(10, 12, 0.3, seed + 5);
  const CsrMatrix b = test::random_csr(12, 9, 0.3, seed + 6);
  const CsrMatrix lhs = transpose(gustavson_spgemm(a, b));
  const CsrMatrix rhs = gustavson_spgemm(transpose(b), transpose(a));
  std::string why;
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-9, &why)) << why;
}

TEST_P(AlgebraTest, PowerLawSquareMatchesReference) {
  PowerLawGenConfig cfg;
  cfg.rows = 120;
  cfg.alpha = 2.5;
  cfg.target_nnz = 600;
  cfg.seed = GetParam();
  const CsrMatrix a = generate_power_law_matrix(cfg);
  test::expect_matches_reference(a, a, gustavson_spgemm(a, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace hh
