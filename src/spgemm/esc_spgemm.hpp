// Expand–Sort–Contract SpGEMM: the strategy behind the cuSPARSE-era generic
// GPU kernels the paper's Fig. 6 compares against. Every multiply-add is
// materialized as a ⟨r, c, v⟩ tuple ("expand"), the tuple list is sorted by
// (r, c), and like-tuples are contracted by summing each run.
// Simple and massively parallel, but it moves O(flops) tuples through
// memory — which is exactly why the paper's row-row kernels beat it.
#pragma once

#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

CsrMatrix esc_spgemm(const CsrMatrix& a, const CsrMatrix& b, ThreadPool& pool);

}  // namespace hh
