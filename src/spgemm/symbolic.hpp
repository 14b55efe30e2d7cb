// Symbolic (structure-only) analysis of a sparse product C = A × B.
//
// flops(i) = Σ_{j ∈ A(i,:)} nnz(B(j,:)) — the multiply-add count of the
// row-row formulation for output row i, and an upper bound on its nnz. The
// paper (§I) stresses that exact per-row output size is as hard as the
// multiplication itself.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace hh {

/// Total flops of the full product. Accumulated in an explicit 64-bit type:
/// scale-free products blow past 2^31 intermediate products long before
/// their operands are large, so the total must not inherit a (possibly
/// narrower) offset_t width.
std::int64_t total_flops(const CsrMatrix& a, const CsrMatrix& b);

/// Exact nnz per row of C (runs a structure-only SPA pass; costs ~ flops).
std::vector<offset_t> exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace hh
