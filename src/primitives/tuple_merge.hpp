// Phase IV of Algorithm HH-CPU: combine the ⟨r, c, v⟩ tuples produced by the
// four partial products into the final CSR matrix (paper §III-D, Fig. 4).
//
// The host runs a row-first stable merge: count tuples per row, scatter them
// stably into row buckets, give each row a stable column order, then sum each
// run of equal columns from value_t{0} in input order. The result is the
// same, bit for bit, as a stable global sort by (r, c) followed by Fig. 4's
// per-key reduction; the simulated Phase IV charge (CpuSim::merge_time) is
// still that sort plus reduce.
#pragma once

#include <span>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Cost-relevant statistics of a merge, consumed by the device models.
struct MergeStats {
  std::int64_t tuples_in = 0;   // tuples before combining
  std::int64_t tuples_out = 0;  // distinct (r, c) pairs
};

/// Order tuples by (r, c), sum like-tuples, build CSR. Deterministic.
/// Throws CheckError if a tuple's row or column is out of range.
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, MergeStats* stats = nullptr);
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, ThreadPool& pool,
                            MergeStats* stats = nullptr);

/// Merge of the concatenation of `parts`, in order, without building it.
/// Every part must have the same shape.
CsrMatrix merged_coo_to_csr(std::span<const CooMatrix* const> parts,
                            ThreadPool& pool, MergeStats* stats = nullptr);

}  // namespace hh
