#include "device/gpu_sim.hpp"

#include <algorithm>

namespace hh {

double GpuSim::kernel_time(const ProductStats& s, bool lead) const {
  if (s.rows == 0) return 0.0;
  const double clock = cm_.clock_ghz * 1e9;

  // ALU roofline: warp instructions issued across all schedulers, plus
  // per-row scheduling/compaction work.
  const double alu_cycles = static_cast<double>(s.warp_alu) * cm_.alu_cpi +
                            static_cast<double>(s.rows) * cm_.row_cycles;
  const double alu_time = alu_cycles / (cm_.warp_issue_slots * clock);

  // Memory roofline: B-row transactions + A row reads + output write-out,
  // plus uncoalesced PartialOutput scatter for rows on the global path.
  const double mem_bytes =
      static_cast<double>(s.b_read_bytes) +
      12.0 * static_cast<double>(s.a_nnz) +
      12.0 * static_cast<double>(s.tuples) +
      cm_.uncoalesced_write_bytes * static_cast<double>(s.flops_global);
  const double mem_time = mem_bytes / (cm_.mem_bw_gbps * 1e9);

  // Serial tail: the heaviest row runs on a single warp.
  const double serial_time =
      static_cast<double>(s.max_row_flops) /
      static_cast<double>(cm_.warp_width) * cm_.single_warp_cpi / clock;

  const double body = std::max({alu_time, mem_time, serial_time});
  const double t = cm_.derate * body + cm_.kernel_launch_s;
  return lead ? t : std::max(0.0, t - cm_.kernel_launch_s);
}

DeviceAttempt GpuSim::kernel_attempt(const ProductStats& s, FaultInjector* fi,
                                     bool lead) const {
  const double t = kernel_time(s, lead);
  if (t <= 0) return {true, false, 0, kNoDeviceOp};
  if (fi != nullptr) {
    const FaultDecision d = fi->next(FaultSite::kGpuKernel);
    if (d.fault) {
      return {false, false, std::max(cm_.kernel_launch_s, d.fraction * t),
              d.op};
    }
    return {true, false, t, d.op};
  }
  return {true, false, t, kNoDeviceOp};
}

double GpuSim::generic_time(const ProductStats& s) const {
  if (s.rows == 0) return 0.0;
  // Expand-sort-contract: every flop becomes a tuple that is written,
  // radix-sorted (multiple passes), and contracted — all in global memory.
  const double mem_bytes =
      static_cast<double>(s.b_read_bytes) +
      cm_.esc_bytes_per_flop * static_cast<double>(s.flops);
  const double mem_time = mem_bytes / (cm_.mem_bw_gbps * 1e9);
  return cm_.library_two_phase_factor * cm_.derate * mem_time +
         cm_.kernel_launch_s;
}

double GpuSim::classify_time(std::int64_t rows) const {
  const double clock = cm_.clock_ghz * 1e9;
  return static_cast<double>(rows) * cm_.classify_cycles /
             (cm_.warp_issue_slots * clock) +
         cm_.kernel_launch_s;
}

double GpuSim::tuple_sort_time(std::int64_t tuples) const {
  // 16-byte tuples, 4 radix passes, read+write each pass.
  if (tuples == 0) return 0.0;
  // Radix sort is a regular streaming workload: no irregularity derate.
  const double bytes = static_cast<double>(tuples) * 16.0 * 4.0 * 2.0;
  return bytes / (cm_.mem_bw_gbps * 1e9) + cm_.kernel_launch_s;
}

}  // namespace hh
