#include "gen/datasets.hpp"

#include <array>
#include <cstdlib>
#include <fstream>

#include "gen/powerlaw_gen.hpp"
#include "sparse/mm_io.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// Table I of the paper, verbatim.
constexpr std::array<DatasetSpec, 12> kTable1 = {{
    {"scircuit", 170998, 958936, 3.55},
    {"webbase-1M", 1000005, 3105536, 2.1},
    {"cop20kA", 121192, 2624331, 143.8},
    {"web-Google", 916428, 5105039, 3.75},
    {"p2p-Gnutella31", 62586, 147892, 48.9},
    {"ca-CondMat", 23133, 186936, 3.58},
    {"roadNet-CA", 1971281, 5533214, 133.80},
    {"internet", 124651, 207214, 4.63},
    {"dblp2010", 326186, 1615400, 5.79},
    {"email-Enron", 36692, 367662, 2.1},
    {"wiki-Vote", 8297, 103689, 3.88},
    {"cit-Patents", 3774768, 16518948, 3.90},
}};

std::uint64_t name_seed(const char* name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h = (h ^ static_cast<std::uint64_t>(*p)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::span<const DatasetSpec> table1_datasets() { return kTable1; }

const DatasetSpec& dataset_spec(const std::string& name) {
  for (const auto& spec : kTable1) {
    if (name == spec.name) return spec;
  }
  throw InvalidArgumentError("unknown dataset " + name);
}

CsrMatrix make_dataset(const DatasetSpec& spec, double scale,
                       std::uint64_t seed_salt) {
  HH_CHECK(scale > 0 && scale <= 1.0);
  PowerLawGenConfig cfg;
  cfg.rows = std::max<index_t>(64, static_cast<index_t>(spec.rows * scale));
  cfg.cols = cfg.rows;
  cfg.target_nnz = std::max<std::int64_t>(
      cfg.rows, static_cast<std::int64_t>(static_cast<double>(spec.nnz) * scale));
  cfg.seed = name_seed(spec.name) + seed_salt;

  const double mean_deg = static_cast<double>(cfg.target_nnz) /
                          static_cast<double>(cfg.rows);
  if (spec.alpha > 6.5) {
    // Not meaningfully scale-free (cop20kA, roadNet-CA, p2p-Gnutella31):
    // row sizes spread unimodally around the mean (paper Fig. 5), which a
    // Poisson profile matches far better than a degenerate power law.
    cfg.alpha = spec.alpha;
    cfg.dist = DegreeDist::kPoisson;
    cfg.poisson_mean = mean_deg;
  } else {
    cfg.alpha = spec.alpha;
    // For 2 < α, a Pareto tail with mean m has kmin ≈ m(α-2)/(α-1); for
    // α ≤ 2 the mean is cut-off-dominated, kmin = 1 and the nnz rescale
    // does the rest.
    cfg.kmin = std::max<std::int64_t>(
        1, spec.alpha > 2.2
               ? static_cast<std::int64_t>(mean_deg * (spec.alpha - 2.0) /
                                           (spec.alpha - 1.0))
               : 1);
  }
  return generate_power_law_matrix(cfg);
}

CsrMatrix load_or_make_dataset(const DatasetSpec& spec, double scale) {
  if (const char* dir = std::getenv("HH_DATASET_DIR")) {
    const std::string path = std::string(dir) + "/" + spec.name + ".mtx";
    std::ifstream probe(path);
    if (probe.good()) {
      probe.close();
      HH_LOG_INFO << "loading real dataset " << path;
      return read_matrix_market_file(path);
    }
  }
  return make_dataset(spec, scale);
}

double default_bench_scale() {
  if (const char* env = std::getenv("HH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0 && s <= 1.0) return s;
  }
  return 0.25;
}

}  // namespace hh
