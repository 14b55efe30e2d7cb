// spmm_tool: command-line driver for the library. Loads MatrixMarket inputs
// (or generates a named Table I analogue), multiplies with the requested
// algorithm, reports the simulated-platform timing, and optionally writes
// the product.
//
//   ./spmm_tool --a webbase-1M --algo hh
//   ./spmm_tool --a path/to/A.mtx --b path/to/B.mtx --algo hipc --out C.mtx
//   ./spmm_tool --a wiki-Vote --algo all --scale 0.1
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "sparse/equality.hpp"
#include "sparse/mm_io.hpp"
#include "util/status.hpp"

namespace {

using namespace hh;

CsrMatrix load_operand(const std::string& spec, double scale) {
  std::ifstream probe(spec);
  if (probe.good()) {
    probe.close();
    return read_matrix_market_file(spec);
  }
  return make_dataset(dataset_spec(spec), scale);
}

int usage() {
  std::fprintf(stderr,
               "usage: spmm_tool --a <mtx-file|dataset-name> [--b <...>]\n"
               "                 [--algo hh|hipc|unsorted|sorted|mkl|cusparse|"
               "all]\n"
               "                 [--scale S] [--threshold T] [--out C.mtx]\n");
  return 2;
}

void report(const RunResult& r) {
  std::printf("%s\n", r.report.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string a_spec, b_spec, algo = "hh", out_path;
  double scale = 0.05;
  offset_t threshold = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--a" && next) {
      a_spec = next;
      ++i;
    } else if (arg == "--b" && next) {
      b_spec = next;
      ++i;
    } else if (arg == "--algo" && next) {
      algo = next;
      ++i;
    } else if (arg == "--scale" && next) {
      scale = std::atof(next);
      ++i;
    } else if (arg == "--threshold" && next) {
      threshold = std::atoll(next);
      ++i;
    } else if (arg == "--out" && next) {
      out_path = next;
      ++i;
    } else {
      return usage();
    }
  }
  if (a_spec.empty()) return usage();

  ThreadPool pool(0);
  const HeteroPlatform plat = make_scaled_platform(scale);
  CsrMatrix a, b;
  try {
    a = load_operand(a_spec, scale);
    b = b_spec.empty() ? a : load_operand(b_spec, scale);
  } catch (const HhError& e) {  // a malformed .mtx or an unknown dataset
    std::fprintf(stderr, "spmm_tool: %s\n", e.what());
    return 1;
  }
  std::printf("A: %s   B: %s\n\n", a.summary().c_str(), b.summary().c_str());

  HhCpuOptions hh_opt;
  hh_opt.threshold_a = threshold;
  hh_opt.threshold_b = threshold;

  RunResult result;
  if (algo == "hh") {
    result = run_hh_cpu(a, b, hh_opt, plat, pool);
    report(result);
  } else if (algo == "hipc") {
    result = run_hipc2012(a, b, plat, pool);
    report(result);
  } else if (algo == "unsorted") {
    result = run_unsorted_workqueue(a, b, {}, plat, pool);
    report(result);
  } else if (algo == "sorted") {
    result = run_sorted_workqueue(a, b, {}, plat, pool);
    report(result);
  } else if (algo == "mkl") {
    result = run_cpu_only_mkl(a, b, plat, pool);
    report(result);
  } else if (algo == "cusparse") {
    result = run_gpu_only_cusparse(a, b, plat, pool);
    report(result);
  } else if (algo == "all") {
    result = run_hh_cpu(a, b, hh_opt, plat, pool);
    report(result);
    for (const RunResult& r :
         {run_hipc2012(a, b, plat, pool),
          run_unsorted_workqueue(a, b, {}, plat, pool),
          run_sorted_workqueue(a, b, {}, plat, pool),
          run_cpu_only_mkl(a, b, plat, pool),
          run_gpu_only_cusparse(a, b, plat, pool)}) {
      std::string why;
      if (!approx_equal(result.c, r.c, 1e-9, &why)) {
        std::fprintf(stderr, "mismatch (%s): %s\n", r.report.algorithm.c_str(),
                     why.c_str());
        return 1;
      }
      report(r);
    }
  } else {
    return usage();
  }

  if (!out_path.empty()) {
    write_matrix_market_file(out_path, result.c);
    std::printf("wrote %s (%s)\n", out_path.c_str(), result.c.summary().c_str());
  }
  return 0;
}
