// Ablation: the GPU shared-memory accumulator capacity (the TR_b column-
// group size of the [13] kernel, §II-A(b)). Rows whose output fits the
// shared accumulator avoid the global-memory PartialOutput scatter; a small
// capacity pushes more flops onto the slow global path.
#include <cstdio>

#include "bench_common.hpp"
#include "spgemm/spgemm.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Ablation: GPU shared-accumulator capacity (TR_b)");

  ThreadPool pool(0);
  const double scale = bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);
  const std::int64_t scaled_default = shared_accum_cap();
  const CsrMatrix a = make_dataset(dataset_spec("webbase-1M"), scale);

  std::printf("matrix: webbase-1M analogue (scaled default cap = %lld)\n\n",
              static_cast<long long>(scaled_default));
  std::printf("%10s %16s %16s %14s\n", "cap", "flops shared",
              "flops global", "GPU-only ms");
  for (const std::int64_t cap : {std::int64_t{4}, std::int64_t{16},
                                 std::int64_t{64}, scaled_default,
                                 std::int64_t{4096}}) {
    set_shared_accum_cap(cap);
    const RunResult gpu = run_gpu_only_hipc_kernel(a, a, plat, pool);
    // Recompute aggregate stats at this cap for the report line.
    std::vector<index_t> rows(static_cast<std::size_t>(a.rows));
    for (index_t r = 0; r < a.rows; ++r) rows[r] = r;
    ProductStats stats;
    RowRunBuffer tuples(a.rows, a.cols);
    partial_product_tuples(a, a, rows, {}, true, pool, tuples, &stats);
    std::printf("%10lld %16lld %16lld %14.3f\n", static_cast<long long>(cap),
                static_cast<long long>(stats.flops_shared),
                static_cast<long long>(stats.flops_global),
                gpu.report.total_s * 1e3);
  }
  set_shared_accum_cap(scaled_default);
  std::printf("\nlarger capacity -> more flops on the fast shared path ->"
              " faster GPU kernel\n");
  return 0;
}
