// Phase IV of Algorithm HH-CPU: combine the ⟨r, c, v⟩ tuples produced by the
// four partial products into the final CSR matrix (paper §III-D, Fig. 4).
//
// The partial products arrive as row-run buffers (sparse/row_runs.hpp), one
// per part, and every output row is the merge of its few sorted runs. The
// host counts runs per row, then makes two parallel passes over the rows:
// one counts each row's distinct columns, the next writes the row straight
// into the CSR, summing each column from value_t{0} in part order. The
// result is the same, bit for bit, as a stable global sort by (r, c) of the
// tuples in input order followed by Fig. 4's per-key reduction; the
// simulated Phase IV charge (CpuSim::merge_time) is still that sort plus
// reduce.
#pragma once

#include <cstdint>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/row_runs.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Cost-relevant statistics of a merge, consumed by the device models.
struct MergeStats {
  std::int64_t tuples_in = 0;   // tuples before combining
  std::int64_t tuples_out = 0;  // distinct (r, c) pairs
};

/// Merge of the runs of `parts`, taken in part order and, within a part, in
/// buffer order. Every part must have the same shape. Throws CheckError if a
/// run's row or column is out of range or its columns are not ascending and
/// distinct.
CsrMatrix merged_runs_to_csr(std::span<const RowRunBuffer* const> parts,
                             ThreadPool& pool, MergeStats* stats = nullptr);

}  // namespace hh
