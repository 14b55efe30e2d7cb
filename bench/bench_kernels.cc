// Real wall-clock microbenchmarks of the host kernels (google-benchmark):
// the sequential reference product, the partial-product kernel every HH
// phase runs, the Phase IV merge, and the generator. These measure the
// actual C++ implementations on the build machine — unlike the figure
// benches, nothing here is simulated.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/hh_stages.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"

namespace {

hh::CsrMatrix bench_matrix(hh::index_t rows) {
  hh::PowerLawGenConfig cfg;
  cfg.rows = rows;
  cfg.alpha = 2.5;
  cfg.target_nnz = static_cast<std::int64_t>(rows) * 5;
  cfg.seed = 12345;
  return hh::generate_power_law_matrix(cfg);
}

void BM_GustavsonSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::gustavson_spgemm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_GustavsonSpgemm)->Arg(2000)->Arg(8000);

// partial_product_tuples, the kernel behind Phases II and III, over every
// row of A×A for a Table-I analogue at scale 0.02, on a pool of 1 or 4
// threads. Items are flops, so the rate reads as multiply-adds per second.
void BM_PartialProduct(benchmark::State& state) {
  static constexpr const char* kDatasets[] = {"webbase-1M", "cit-Patents",
                                              "roadNet-CA"};
  const hh::DatasetSpec& spec = hh::dataset_spec(kDatasets[state.range(0)]);
  const hh::CsrMatrix a = hh::make_dataset(spec, 0.02);
  std::vector<hh::index_t> rows(static_cast<std::size_t>(a.rows));
  std::iota(rows.begin(), rows.end(), hh::index_t{0});
  hh::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    hh::RowRunBuffer out(a.rows, a.cols);
    hh::partial_product_tuples(a, a, rows, {}, true, pool, out);
    benchmark::DoNotOptimize(out.val.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(spec.name);
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_PartialProduct)
    ->ArgsProduct({{0, 1, 2}, {1, 4}})
    ->ArgNames({"dataset", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// sweep_thresholds, the analytic Phase I plan: every candidate of the
// threshold grid for A×A over a Table-I analogue at scale 0.02. Items are
// A's nonzeros.
void BM_ThresholdSweep(benchmark::State& state) {
  static constexpr const char* kDatasets[] = {"webbase-1M", "cit-Patents",
                                              "roadNet-CA", "web-Google"};
  const hh::DatasetSpec& spec = hh::dataset_spec(kDatasets[state.range(0)]);
  const hh::CsrMatrix a = hh::make_dataset(spec, 0.02);
  const hh::HeteroPlatform platform;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::sweep_thresholds(a, a, platform));
  }
  state.SetLabel(spec.name);
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_ThresholdSweep)
    ->DenseRange(0, 3)
    ->ArgName("dataset")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Phase IV on the tuples one HH product really feeds it: the three row-run
// parts run_phase2 and run_phase3 emit, so a row holds up to two runs. The
// threshold is the mean row length, which gives every part a share of the
// tuples (the analytic pick puts nearly all of them in A_H×B_H).
void BM_TupleMerge(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  const hh::HeteroPlatform platform;
  hh::ThreadPool pool(0);
  const hh::PartitionPlan plan = hh::make_partition_plan(a, a, 5, 5, platform);
  const hh::Phase2Result p2 = hh::run_phase2(a, a, plan, platform, pool);
  const hh::WorkQueueResult queue =
      hh::run_phase3(a, a, plan, hh::WorkQueueConfig{}, 0, 0, platform, pool);
  const hh::RowRunBuffer* parts[] = {&p2.hh_tuples, &p2.ll_tuples,
                                     &queue.tuples};
  std::int64_t tuples = 0;
  for (const hh::RowRunBuffer* p : parts) {
    tuples += static_cast<std::int64_t>(p->nnz());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merged_runs_to_csr(parts, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_TupleMerge);

void BM_PowerLawGenerator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench_matrix(static_cast<hh::index_t>(state.range(0))));
  }
}
BENCHMARK(BM_PowerLawGenerator)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
