#include "sched/workqueue.hpp"

#include <gtest/gtest.h>

#include "primitives/tuple_merge.hpp"
#include "sched/chunk.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

CsrMatrix merge(const RowRunBuffer& runs) {
  const RowRunBuffer* parts[] = {&runs};
  return merged_runs_to_csr(parts, ThreadPool::global());
}

class WorkQueueTest : public testing::Test {
 protected:
  WorkQueueTest() : a_(test::random_csr(200, 200, 0.05, 71)), pool_(2) {}
  CsrMatrix a_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(WorkQueueTest, ProcessesEveryRowExactlyOnce) {
  const auto entries = natural_order_entries(a_);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 64;
  const WorkQueueResult r =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool_);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows, a_.rows);
  const CsrMatrix got = merge(r.tuples);
  const CsrMatrix want = gustavson_spgemm(a_, a_);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why)) << why;
}

TEST_F(WorkQueueTest, BothDevicesParticipate) {
  const auto entries = natural_order_entries(a_);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 16;
  const WorkQueueResult r =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool_);
  EXPECT_GT(r.cpu_units, 0);
  EXPECT_GT(r.gpu_units, 0);
  EXPECT_GT(r.cpu_busy, 0);
  EXPECT_GT(r.gpu_busy, 0);
}

TEST_F(WorkQueueTest, LateDeviceGetsLessWork) {
  const auto entries = natural_order_entries(a_);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 16;
  const WorkQueueResult balanced =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool_);
  const WorkQueueResult gpu_late =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 1.0, plat_, pool_);
  EXPECT_LT(gpu_late.gpu_units, balanced.gpu_units);
  EXPECT_GT(gpu_late.cpu_units, balanced.cpu_units);
}

TEST_F(WorkQueueTest, VeryLateGpuMeansCpuDoesEverything) {
  const auto entries = natural_order_entries(a_);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 50;
  cfg.gpu_rows = 50;
  const WorkQueueResult r =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 1e9, plat_, pool_);
  EXPECT_EQ(r.gpu_units, 0);
  EXPECT_EQ(r.cpu_stats.rows, a_.rows);
}

TEST_F(WorkQueueTest, DeterministicAcrossPoolSizes) {
  const auto entries = natural_order_entries(a_);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 10;
  cfg.gpu_rows = 30;
  ThreadPool pool1(1), pool4(4);
  const WorkQueueResult x =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool1);
  const WorkQueueResult y =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool4);
  EXPECT_EQ(x.cpu_units, y.cpu_units);
  EXPECT_DOUBLE_EQ(x.cpu_busy, y.cpu_busy);
  EXPECT_EQ(x.tuples.run_row, y.tuples.run_row);
  EXPECT_EQ(x.tuples.run_end, y.tuples.run_end);
  EXPECT_EQ(x.tuples.col, y.tuples.col);
  EXPECT_EQ(x.tuples.val, y.tuples.val);
}

TEST_F(WorkQueueTest, TwoTagQueueUsesMasks) {
  // Front half ×B_H, back half ×B_L: together they cover the full product
  // restricted to the chosen rows.
  const RowPartition p = classify_rows(a_, 12);
  std::vector<WorkEntry> entries;
  append_entries(entries, p.low_rows, 0);
  append_entries(entries, p.high_rows, 1);
  const MaskSpec masks[2] = {{p.is_high, true, 100.0, true},
                             {p.is_high, false, 1e9, false}};
  WorkQueueConfig cfg;
  cfg.cpu_rows = 20;
  cfg.gpu_rows = 40;
  const WorkQueueResult r =
      run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool_);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows,
            static_cast<std::int64_t>(entries.size()));
}

TEST_F(WorkQueueTest, EmptyQueueReturnsImmediately) {
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  const WorkQueueResult r =
      run_workqueue(a_, a_, {}, masks, cfg, 3.0, 5.0, plat_, pool_);
  EXPECT_EQ(r.cpu_units + r.gpu_units, 0);
  EXPECT_DOUBLE_EQ(r.end_time(), 5.0);
}

TEST_F(WorkQueueTest, RejectsBadTag) {
  const std::vector<WorkEntry> entries{{0, 3}};
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  WorkQueueConfig cfg;
  EXPECT_THROW(run_workqueue(a_, a_, entries, masks, cfg, 0, 0, plat_, pool_),
               CheckError);
}

TEST(WorkQueueConfigTest, AutoScalesWithInstance) {
  WorkQueueConfig cfg;  // cpu_rows = 0 → auto
  const WorkQueueConfig small = resolve_queue_config(cfg, 1000);
  EXPECT_EQ(small.cpu_rows, 16);  // clamped at the floor
  EXPECT_EQ(small.gpu_rows, 160);
  const WorkQueueConfig paper = resolve_queue_config(cfg, 160000);
  EXPECT_EQ(paper.cpu_rows, 1000);  // the paper's cpuRows at full size
  EXPECT_EQ(paper.gpu_rows, 10000);  // and gpuRows (§IV-B)
  WorkQueueConfig manual;
  manual.cpu_rows = 123;
  manual.gpu_rows = 456;
  const WorkQueueConfig kept = resolve_queue_config(manual, 1000000);
  EXPECT_EQ(kept.cpu_rows, 123);
  EXPECT_EQ(kept.gpu_rows, 456);
}

TEST(WorkQueueConfigTest, TinyInstancesStayWithinBounds) {
  // Regression: the auto clamp's 16-row floor used to exceed the instance
  // itself for a_rows < 16. Auto units must satisfy 1 <= cpu_rows <= a_rows
  // (when a_rows >= 1) and gpu_rows >= 1 for every size.
  WorkQueueConfig cfg;  // auto
  for (index_t rows : {0, 1, 2, 3, 7, 15, 16, 17}) {
    const WorkQueueConfig r = resolve_queue_config(cfg, rows);
    EXPECT_GE(r.cpu_rows, 1) << "a_rows=" << rows;
    EXPECT_GE(r.gpu_rows, 1) << "a_rows=" << rows;
    if (rows >= 1) {
      EXPECT_LE(r.cpu_rows, std::max<index_t>(rows, 1)) << "a_rows=" << rows;
    }
  }
  EXPECT_EQ(resolve_queue_config(cfg, 5).cpu_rows, 5);
  EXPECT_EQ(resolve_queue_config(cfg, 1).cpu_rows, 1);
}

TEST(WorkQueueConfigTest, TinyMatrixQueueRunsToCompletion) {
  // End-to-end on a 7-row instance: auto unit sizes must not starve either
  // end or drop rows.
  const CsrMatrix m = test::random_csr(7, 7, 0.4, 33);
  const auto entries = natural_order_entries(m);
  const MaskSpec masks[1] = {{{}, true, 0.0, false}};
  HeteroPlatform plat;
  ThreadPool pool(2);
  const WorkQueueResult r = run_workqueue(m, m, entries, masks,
                                          WorkQueueConfig{}, 0, 0, plat, pool);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows, m.rows);
  const CsrMatrix got = merge(r.tuples);
  const CsrMatrix want = gustavson_spgemm(m, m);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-12, &why)) << why;
}

TEST(SortedEntries, DensestFirst) {
  const CsrMatrix m = test::random_csr(50, 50, 0.2, 81);
  const auto entries = sorted_by_density_entries(m);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(m.row_nnz(entries[i - 1].row), m.row_nnz(entries[i].row));
  }
}

}  // namespace
}  // namespace hh
