// Algorithm HH-CPU decomposed into schedulable stages.
//
// run_hh_cpu() executes the four phases back-to-back with the seed's serial
// transfer → compute → transfer accounting. The pipelined service runtime
// (src/runtime/) instead schedules each stage on its own resource timeline
// (CPU, GPU, H2D link, D2H link), overlapping stages of *different* requests.
// Both drivers call the functions below, so the numeric work — and therefore
// the output matrix — is identical; only the clock bookkeeping differs.
//
// Stage → resource map used by the runtime:
//   make_partition_plan (Phase I)   CPU (identification) [+ classify charge]
//   run_phase2                      CPU (A_H×B_H) ∥ GPU (A_L×B_L)
//   run_phase3                      CPU + GPU jointly (double-ended queue)
//   D2H tuple shipment              D2H channel
//   run_phase4                      CPU (per-row merge of the parts' runs)
//
// Tuples travel as three row-run buffers (sparse/row_runs.hpp): Phase II
// A_H×B_H, Phase II A_L×B_L, and the Phase III queue. Each partial product
// writes a row's sorted tuples once, and every output row is the merge of at
// most two runs: its Phase II run and its queue run.
#pragma once

#include "core/partition_plan.hpp"
#include "device/platform.hpp"
#include "primitives/tuple_merge.hpp"
#include "sched/workqueue.hpp"
#include "sparse/csr.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Phase II: CPU computes A_H×B_H, GPU computes A_L×B_L. Products with an
/// empty side are skipped (no phantom per-row cost). Durations are per-device
/// busy times; the caller decides how they overlap.
struct Phase2Result {
  RowRunBuffer hh_tuples;  // CPU side (pool-backed when a workspace is given)
  RowRunBuffer ll_tuples;  // GPU side
  ProductStats hh_stats;
  ProductStats ll_stats;
  double cpu_s = 0;
  double gpu_s = 0;
};

Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* workspace = nullptr);

/// Phase III: the double-ended workqueue over A_L×B_H (CPU end) and A_H×B_L
/// (GPU end). Device clocks enter at cpu_start/gpu_start; cross products
/// whose B side is empty are skipped outright.
WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool,
                           WorkspacePool* workspace = nullptr);

/// Phase IV: merge every ⟨r,c,v⟩ tuple into the final CSR. Consumes the
/// phase-2 and queue tuple buffers (releasing them back to `workspace`, in
/// the order hh, ll, queue). cpu_s is the merge time on the CPU model; the
/// D2H shipment of the GPU tuples is charged separately by the caller.
struct MergeResult {
  CsrMatrix c;
  MergeStats merge;
  double cpu_s = 0;
};

MergeResult run_phase4(Phase2Result&& p2, WorkQueueResult&& queue,
                       const HeteroPlatform& platform, ThreadPool& pool,
                       WorkspacePool* workspace = nullptr);

}  // namespace hh
