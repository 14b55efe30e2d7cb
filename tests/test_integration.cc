// End-to-end flows across modules: dataset generation → all algorithms →
// identical products; MatrixMarket round trip through the full pipeline.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "fault/checksum.hpp"
#include "gen/datasets.hpp"
#include "powerlaw/fit.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/row_stats.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

TEST(Integration, AllAlgorithmsProduceIdenticalResults) {
  ThreadPool pool(2);
  const HeteroPlatform plat;
  const CsrMatrix a = make_dataset(dataset_spec("ca-CondMat"), 0.05);

  const RunResult hh = run_hh_cpu(a, a, {}, plat, pool);
  std::string why;
  for (const RunResult& res :
       {run_hipc2012(a, a, plat, pool),
        run_unsorted_workqueue(a, a, {}, plat, pool),
        run_sorted_workqueue(a, a, {}, plat, pool),
        run_cpu_only_mkl(a, a, plat, pool),
        run_gpu_only_cusparse(a, a, plat, pool),
        run_gpu_only_hipc_kernel(a, a, plat, pool)}) {
    EXPECT_TRUE(approx_equal(hh.c, res.c, 1e-9, &why))
        << res.report.algorithm << ": " << why;
  }
}

TEST(Integration, MatrixMarketPipelineRoundTrip) {
  ThreadPool pool(2);
  const HeteroPlatform plat;
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.05);
  const std::string path = testing::TempDir() + "/hh_integration.mtx";
  write_matrix_market_file(path, a);
  const CsrMatrix loaded = read_matrix_market_file(path);

  const RunResult from_mem = run_hh_cpu(a, a, {}, plat, pool);
  const RunResult from_file = run_hh_cpu(loaded, loaded, {}, plat, pool);
  std::string why;
  EXPECT_TRUE(approx_equal(from_mem.c, from_file.c, 1e-9, &why)) << why;
}

TEST(Integration, Table1PipelineProducesFittableAnalogues) {
  // Small-scale version of the Table I workflow: generate, fit α, check the
  // scale-free matrices read back as heavier-tailed than the uniform ones.
  const CsrMatrix sf = make_dataset(dataset_spec("webbase-1M"), 0.01);
  const CsrMatrix uni = make_dataset(dataset_spec("roadNet-CA"), 0.01);
  const double alpha_sf = fit_power_law(row_nnz_vector(sf)).alpha;
  const double alpha_uni = fit_power_law(row_nnz_vector(uni)).alpha;
  EXPECT_LT(alpha_sf, alpha_uni);
}

TEST(Integration, ScaledPlatformRunsFullAlgorithm) {
  ThreadPool pool(2);
  const HeteroPlatform plat = make_scaled_platform(0.05);
  const CsrMatrix a = make_dataset(dataset_spec("dblp2010"), 0.03);
  const RunResult res = run_hh_cpu(a, a, {}, plat, pool);
  EXPECT_GT(res.report.total_s, 0);
  EXPECT_GT(res.c.nnz(), 0);
  set_shared_accum_cap(kSharedAccumCap);  // restore for other tests
}

TEST(Integration, Table1OutputDigestIsPinned) {
  // Pins every output bit of HH-CPU over the 12 Table-I analogues: the
  // matrix_checksum of each A×A product at scale 0.02, chained in table
  // order. The value was computed once; a change that moves it changed
  // the numerics, not just the simulated clock. The product must not
  // depend on the pool size either.
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const HeteroPlatform plat = make_scaled_platform(0.02);
    std::uint64_t h = kFnv1aOffset;
    for (const DatasetSpec& spec : table1_datasets()) {
      const CsrMatrix m = make_dataset(spec, 0.02);
      checksum_mix(h, matrix_checksum(run_hh_cpu(m, m, {}, plat, pool).c));
    }
    EXPECT_EQ(h, 0xaa8113b5eab7a527ULL)
        << threads << " threads: computed digest 0x" << std::hex << h;
  }
  set_shared_accum_cap(kSharedAccumCap);  // restore for other tests
}

}  // namespace
}  // namespace hh
