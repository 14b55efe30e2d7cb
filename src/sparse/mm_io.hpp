// MatrixMarket (.mtx) coordinate-format I/O.
//
// Lets real SuiteSparse/SNAP matrices (paper Table I) be dropped into the
// benchmarks in place of the synthetic analogues: set HH_DATASET_DIR to a
// directory containing <name>.mtx files.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace hh {

/// Largest row or column count the reader accepts: 2^26, about 17× the rows
/// of cit-Patents, the largest Table-I matrix. The CSR row pointers (512 MiB
/// at the limit) and every SPA over the columns are sized from these counts,
/// so a three-line file must not be able to ask for gigabytes.
inline constexpr index_t kMaxMatrixMarketDim = index_t{1} << 26;

/// Reads "matrix coordinate (real|integer|pattern) (general|symmetric)".
/// Pattern entries get value 1.0; symmetric inputs are mirrored.
/// Throws ParseError (util/status.hpp) on malformed input: bad banner,
/// non-numeric tokens, out-of-range indices, row or column counts above
/// kMaxMatrixMarketDim, entry counts exceeding rows*cols, truncation,
/// trailing junk.
CsrMatrix read_matrix_market(std::istream& in);
CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes "matrix coordinate real general" with 1-based indices.
void write_matrix_market(std::ostream& out, const CsrMatrix& m);
void write_matrix_market_file(const std::string& path, const CsrMatrix& m);

}  // namespace hh
