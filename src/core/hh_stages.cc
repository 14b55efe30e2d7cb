#include "core/hh_stages.hpp"

#include <utility>

#include "sched/chunk.hpp"

namespace hh {

Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* workspace) {
  Phase2Result r;
  r.hh_tuples = acquire_runs(workspace, a.rows, b.cols);
  r.ll_tuples = acquire_runs(workspace, a.rows, b.cols);
  // A product with an empty side contributes nothing; skip it so degenerate
  // partitions charge no phantom per-row cost.
  if (plan.a.high_count() > 0 && plan.b.high_count() > 0) {
    partial_product_tuples(a, b, plan.a.high_rows, plan.b.is_high, true, pool,
                           r.hh_tuples, &r.hh_stats, workspace);
  }
  if (plan.a.low_count() > 0 && plan.b.low_count() > 0) {
    partial_product_tuples(a, b, plan.a.low_rows, plan.b.is_high, false, pool,
                           r.ll_tuples, &r.ll_stats, workspace);
  }
  r.cpu_s = platform.cpu().kernel_time(r.hh_stats, plan.ws_bh_bytes, true,
                                       /*blockable=*/true);
  r.gpu_s = platform.gpu().kernel_time(r.ll_stats);
  return r;
}

WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool, WorkspacePool* workspace) {
  // CPU end: A_L×B_H (tag 0). GPU end: A_H×B_L (tag 1). The GPU reaches its
  // side from the back (§IV-B). A cross product whose B side is empty
  // contributes nothing and is skipped outright (degenerate partitions on
  // non-scale-free inputs; §V-B: HH-CPU must not pay for work that is not
  // there).
  std::vector<WorkEntry> entries;
  if (plan.b.high_count() > 0) append_entries(entries, plan.a.low_rows, 0);
  if (plan.b.low_count() > 0) append_entries(entries, plan.a.high_rows, 1);
  const MaskSpec masks[2] = {
      {plan.b.is_high, true, plan.ws_bh_bytes, /*cpu_blockable=*/true},
      {plan.b.is_high, false, plan.ws_bl_bytes, /*cpu_blockable=*/false},
  };
  return run_workqueue(a, b, entries, masks, cfg, cpu_start, gpu_start,
                       platform, pool, workspace);
}

MergeResult run_phase4(Phase2Result&& p2, WorkQueueResult&& queue,
                       const HeteroPlatform& platform, ThreadPool& pool,
                       WorkspacePool* workspace) {
  MergeResult m;
  const RowRunBuffer* parts[] = {&p2.hh_tuples, &p2.ll_tuples, &queue.tuples};
  m.c = merged_runs_to_csr(parts, pool, &m.merge);
  m.cpu_s = platform.cpu().merge_time(m.merge.tuples_in);
  release_runs(workspace, std::move(p2.hh_tuples));
  release_runs(workspace, std::move(p2.ll_tuples));
  release_runs(workspace, std::move(queue.tuples));
  return m;
}

}  // namespace hh
