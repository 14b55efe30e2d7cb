// The custom double-ended workqueue of paper §III-C / §IV-B.
//
// The CPU dequeues work-units from the front, the GPU from the back, so the
// two devices never contend on the same end and synchronization cost stays
// minimal. A work-unit is a contiguous run of A rows (cpuRows = 1000 on the
// CPU, gpuRows = 10000 on the GPU, the paper's empirically-best sizes)
// multiplied against a masked view of B. A device that drains its own side
// continues into the other side's entries (the paper's "can contribute to
// the product ... after finishing").
//
// The queue is simulated event-wise: whichever device's clock is earlier
// dequeues next; the numeric work of each unit is executed for real on the
// host and its ProductStats are charged on the owning device's model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/platform.hpp"
#include "sparse/csr.hpp"
#include "spgemm/spgemm.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Which masked view of B a queue entry multiplies against.
struct MaskSpec {
  std::span<const std::uint8_t> b_mask;  // empty = all of B
  bool b_mask_value = true;
  double cpu_ws_bytes = 0;   // working set of the masked B side in bytes
  bool cpu_blockable = false;  // ×B_H products are column-blockable on the
                               // CPU (see CpuSim::kernel_time)
};

/// One row of A awaiting multiplication, tagged with its MaskSpec index.
struct WorkEntry {
  index_t row = 0;
  std::int8_t tag = 0;
};

struct WorkQueueConfig {
  // Paper §IV-B uses cpuRows = 1000 and gpuRows = 10000 against full-size
  // matrices (0.16–3.8 M rows). 0 = auto: scale the unit with the instance
  // (≈ rows/160, clamped to [16, 1000]) so scaled-down experiments keep the
  // same queue granularity relative to the matrix; gpuRows stays 10× cpuRows.
  index_t cpu_rows = 0;
  index_t gpu_rows = 0;
  double cpu_dequeue_s = 2e-7;  // atomic fetch-add on the CPU end
  double gpu_dequeue_s = 1e-6;  // offset exchange for the GPU end
  bool cpu_rewritten = true;    // CPU uses the rewritten [13] kernel
};

struct WorkQueueResult {
  RowRunBuffer tuples;  // every unit's runs, in dequeue (sim) order; pooled
                       // when a workspace is given
  ProductStats cpu_stats;
  ProductStats gpu_stats;
  double cpu_busy = 0;  // time the CPU spent on queue units
  double gpu_busy = 0;
  double cpu_end = 0;  // device clock when it stopped dequeuing
  double gpu_end = 0;
  int cpu_units = 0;
  int gpu_units = 0;

  double end_time() const { return std::max(cpu_end, gpu_end); }
};

/// Resolve auto (0) unit sizes against the instance size. Guarantees
/// 1 <= cpu_rows and 1 <= gpu_rows for every a_rows >= 0, and never picks an
/// auto cpu_rows larger than the instance itself (tiny matrices get
/// single-digit units instead of the 16-row floor).
WorkQueueConfig resolve_queue_config(WorkQueueConfig cfg, index_t a_rows);

/// Run the queue to empty. `entries` is ordered CPU-end-first; masks[tag]
/// resolves each entry's B view. Device clocks start at cpu_start/gpu_start
/// (they may differ: a device joins the queue when its Phase II product is
/// done). Unit sizes of 0 are resolved via resolve_queue_config().
/// Deterministic. `workspace` optionally pools the kernels' accumulators and
/// tuple buffers (see spgemm/workspace.hpp); `tuples` is then drawn from it,
/// and the caller hands it back once merged.
WorkQueueResult run_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                              std::span<const WorkEntry> entries,
                              std::span<const MaskSpec> masks,
                              const WorkQueueConfig& cfg, double cpu_start,
                              double gpu_start,
                              const HeteroPlatform& platform,
                              ThreadPool& pool,
                              WorkspacePool* workspace = nullptr);

}  // namespace hh
