#include "core/baselines.hpp"

#include <numeric>

#include "primitives/tuple_merge.hpp"
#include "sched/chunk.hpp"
#include "sched/static_partition.hpp"
#include "spgemm/spgemm.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

std::vector<index_t> iota_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

double input_transfer(const CsrMatrix& a, const CsrMatrix& b,
                      const HeteroPlatform& platform) {
  double t = platform.link().h2d().matrix_transfer_time(a);
  if (&a != &b) t += platform.link().h2d().matrix_transfer_time(b);
  return t;
}

CsrMatrix merge_runs(const RowRunBuffer& tuples, ThreadPool& pool,
                     MergeStats* stats) {
  const RowRunBuffer* parts[] = {&tuples};
  return merged_runs_to_csr(parts, pool, stats);
}

RunResult finish_workqueue_run(const char* name, WorkQueueResult&& queue,
                               double transfer_in,
                               const HeteroPlatform& platform,
                               ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = name;
  rep.transfer_in_s = transfer_in;
  rep.phase3_cpu_s = queue.cpu_busy;
  rep.phase3_gpu_s = queue.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(queue.cpu_busy, queue.gpu_busy);
  rep.queue_cpu_units = queue.cpu_units;
  rep.queue_gpu_units = queue.gpu_units;
  rep.flops = queue.cpu_stats.flops + queue.gpu_stats.flops;

  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(queue.gpu_stats.tuples);
  res.c = merge_runs(queue.tuples, pool, &rep.merge);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.output_nnz = res.c.nnz();
  rep.total_s = queue.end_time() + rep.transfer_out_s + rep.phase4_s;
  return res;
}

}  // namespace

RunResult run_hipc2012(const CsrMatrix& a, const CsrMatrix& b,
                       const HeteroPlatform& platform, ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "HiPC2012";

  const StaticSplit split = balance_static_split(a, b, platform);
  const double transfer_in = input_transfer(a, b, platform);
  rep.transfer_in_s = transfer_in;

  std::vector<index_t> all = iota_rows(a.rows);
  const std::span<const index_t> cpu_rows(all.data(),
                                          static_cast<std::size_t>(split.split_row));
  const std::span<const index_t> gpu_rows(
      all.data() + split.split_row,
      static_cast<std::size_t>(a.rows - split.split_row));

  ProductStats cpu_stats, gpu_stats;
  RowRunBuffer cpu_tuples(a.rows, b.cols), gpu_tuples(a.rows, b.cols);
  partial_product_tuples(a, b, cpu_rows, {}, true, pool, cpu_tuples,
                         &cpu_stats);
  partial_product_tuples(a, b, gpu_rows, {}, true, pool, gpu_tuples,
                         &gpu_stats);

  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  const double t_cpu = platform.cpu().kernel_time(cpu_stats, ws_full, true);
  const double t_gpu = transfer_in + platform.gpu().kernel_time(gpu_stats);
  rep.phase2_cpu_s = t_cpu;
  rep.phase2_gpu_s = t_gpu - transfer_in;
  rep.phase2_s = HeteroPlatform::overlap(t_cpu, t_gpu - transfer_in);
  rep.flops = cpu_stats.flops + gpu_stats.flops;

  // Devices own disjoint row blocks, so "merging ... is straight-forward"
  // (paper §III-D); still, GPU tuples cross PCIe and both blocks are
  // assembled into one CSR.
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(gpu_stats.tuples);
  const RowRunBuffer* parts[] = {&cpu_tuples, &gpu_tuples};
  res.c = merged_runs_to_csr(parts, pool, &rep.merge);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.output_nnz = res.c.nnz();
  rep.total_s = HeteroPlatform::overlap(t_cpu, t_gpu) + rep.transfer_out_s +
                rep.phase4_s;
  return res;
}

RunResult run_unsorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                                 const WorkQueueConfig& cfg,
                                 const HeteroPlatform& platform,
                                 ThreadPool& pool) {
  const double transfer_in = input_transfer(a, b, platform);
  const std::vector<WorkEntry> entries = natural_order_entries(a);
  const MaskSpec masks[1] = {{{}, true, 12.0 * static_cast<double>(b.nnz())}};
  WorkQueueResult queue = run_workqueue(a, b, entries, masks, cfg,
                                        /*cpu_start=*/0.0,
                                        /*gpu_start=*/transfer_in, platform,
                                        pool);
  return finish_workqueue_run("Unsorted-Workqueue", std::move(queue),
                              transfer_in, platform, pool);
}

RunResult run_sorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                               const WorkQueueConfig& cfg,
                               const HeteroPlatform& platform,
                               ThreadPool& pool) {
  const double transfer_in = input_transfer(a, b, platform);
  const std::vector<WorkEntry> entries = sorted_by_density_entries(a);
  const MaskSpec masks[1] = {{{}, true, 12.0 * static_cast<double>(b.nnz())}};
  WorkQueueResult queue = run_workqueue(a, b, entries, masks, cfg,
                                        /*cpu_start=*/0.0,
                                        /*gpu_start=*/transfer_in, platform,
                                        pool);
  return finish_workqueue_run("Sorted-Workqueue", std::move(queue),
                              transfer_in, platform, pool);
}

RunResult run_cpu_only_mkl(const CsrMatrix& a, const CsrMatrix& b,
                           const HeteroPlatform& platform, ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "MKL (CPU only)";
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  RowRunBuffer tuples(a.rows, b.cols);
  partial_product_tuples(a, b, rows, {}, true, pool, tuples, &stats);
  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  rep.phase2_cpu_s = platform.cpu().library_time(stats, ws_full);
  rep.phase2_s = rep.phase2_cpu_s;
  rep.flops = stats.flops;
  res.c = merge_runs(tuples, pool, &rep.merge);
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.phase2_s;  // MKL builds CSR in place: no merge phase
  return res;
}

RunResult run_gpu_only_cusparse(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "cuSPARSE (GPU only)";
  rep.transfer_in_s = input_transfer(a, b, platform);
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  RowRunBuffer tuples(a.rows, b.cols);
  partial_product_tuples(a, b, rows, {}, true, pool, tuples, &stats);
  rep.phase2_gpu_s = platform.gpu().generic_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  res.c = merge_runs(tuples, pool, &rep.merge);
  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(static_cast<std::int64_t>(res.c.nnz()));
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s;
  return res;
}

RunResult run_gpu_only_hipc_kernel(const CsrMatrix& a, const CsrMatrix& b,
                                   const HeteroPlatform& platform,
                                   ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "HiPC2012 GPU kernel (GPU only)";
  rep.transfer_in_s = input_transfer(a, b, platform);
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  RowRunBuffer tuples(a.rows, b.cols);
  partial_product_tuples(a, b, rows, {}, true, pool, tuples, &stats);
  rep.phase2_gpu_s = platform.gpu().kernel_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  res.c = merge_runs(tuples, pool, &rep.merge);
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(stats.tuples);
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s +
                platform.cpu().merge_time(rep.merge.tuples_in);
  return res;
}

}  // namespace hh
