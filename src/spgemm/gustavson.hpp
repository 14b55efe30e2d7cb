// Gustavson's row-row SpGEMM [Gustavson 1978] with a sparse accumulator
// (SPA), run sequentially: the reference product that tests and examples
// check every heterogeneous result against. (The library's own kernel is
// partial_product_tuples in spgemm/spgemm.hpp.)
#pragma once

#include "sparse/csr.hpp"

namespace hh {

/// Sequential two-phase (symbolic + numeric) Gustavson. Output rows sorted.
CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace hh
