// The paper's Table I dataset suite.
//
// Offline we cannot download the SuiteSparse/SNAP files, so each matrix has
// a synthetic analogue generated to match its (rows, nnz, α) triple — the
// three properties the paper's entire analysis keys on. If HH_DATASET_DIR
// is set and contains <name>.mtx, the real matrix is loaded instead.
#pragma once

#include <span>
#include <string>

#include "sparse/csr.hpp"

namespace hh {

struct DatasetSpec {
  const char* name;
  index_t rows;
  std::int64_t nnz;
  double alpha;  // power-law exponent of the row sizes (Table I, col α)
};

/// The 12 matrices of Table I, in paper order.
std::span<const DatasetSpec> table1_datasets();

/// Find a spec by name (throws InvalidArgumentError naming it if unknown).
const DatasetSpec& dataset_spec(const std::string& name);

/// Synthetic analogue at `scale` (rows and nnz scaled; α preserved).
CsrMatrix make_dataset(const DatasetSpec& spec, double scale,
                       std::uint64_t seed_salt = 0);

/// Real matrix from $HH_DATASET_DIR/<name>.mtx if present, else the
/// synthetic analogue.
CsrMatrix load_or_make_dataset(const DatasetSpec& spec, double scale);

/// Benchmark default scale: HH_SCALE env var, else 0.25 (the repo runs on
/// modest CI hardware; scale 1.0 reproduces paper-sized instances).
double default_bench_scale();

}  // namespace hh
