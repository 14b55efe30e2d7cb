#include "device/cpu_sim.hpp"

#include <algorithm>

namespace hh {

double CpuSim::kernel_time(const ProductStats& s, double b_working_set_bytes,
                           bool rewritten, bool blockable) const {
  if (s.rows == 0) return 0.0;
  const double clock = cm_.clock_ghz * 1e9;

  // Fraction of B-row traffic served from LLC.
  double hit = 1.0;
  if (b_working_set_bytes > 0) {
    hit = std::min(1.0, cm_.l3_bytes / b_working_set_bytes);
  }
  const double flop_cyc =
      hit * cm_.flop_cycles_cached + (1.0 - hit) * cm_.flop_cycles_stream;
  const double annz_cyc =
      hit * cm_.a_nnz_cycles_cached + (1.0 - hit) * cm_.a_nnz_cycles_miss;

  double cycles = static_cast<double>(s.flops) * flop_cyc +
                  static_cast<double>(s.a_nnz) * annz_cyc +
                  static_cast<double>(s.tuples) * cm_.tuple_cycles +
                  static_cast<double>(s.rows) * cm_.row_cycles;
  if (!blockable) {
    // Wide-output rows scatter into an accumulator larger than L2: one miss
    // per update. Column-blockable products (small B side) avoid this.
    cycles += static_cast<double>(s.flops_global) * cm_.scatter_cycles;
  }
  if (rewritten) cycles *= cm_.rewritten_penalty;
  return cm_.derate * cycles /
         (static_cast<double>(cm_.cores) * cm_.parallel_eff * clock);
}

double CpuSim::library_time(const ProductStats& s,
                            double b_working_set_bytes) const {
  return cm_.library_two_phase_factor *
         kernel_time(s, b_working_set_bytes, /*rewritten=*/false,
                     /*blockable=*/false);
}

double CpuSim::merge_time(std::int64_t tuples) const {
  // The simulated charge stays the paper's Fig. 4 sort plus segmented
  // reduce, while the host computes the same bits by merging each output
  // row's sorted runs straight into the CSR (primitives/tuple_merge.cc).
  // Sort + reduce are regular, bandwidth-friendly passes; the irregularity
  // derate does not apply here.
  const double clock = cm_.clock_ghz * 1e9;
  const double cycles =
      static_cast<double>(tuples) * cm_.merge_cycles_per_tuple;
  return cycles / (static_cast<double>(cm_.cores) * cm_.parallel_eff * clock);
}

DeviceAttempt CpuSim::stall_attempt(FaultInjector* fi) const {
  if (fi == nullptr) return {true, false, 0, kNoDeviceOp};
  const FaultDecision d = fi->next(FaultSite::kCpuWorker);
  // Stalls delay but never fail: the attempt is ok, elapsed_s is the extra
  // occupancy the stage pays.
  return {true, false, d.stall_s, d.op};
}

double CpuSim::stall_s(FaultInjector* fi) const {
  return stall_attempt(fi).elapsed_s;
}

double CpuSim::classify_time(std::int64_t rows) const {
  const double clock = cm_.clock_ghz * 1e9;
  // One pass over row sizes per matrix: a compare and a flag store.
  return static_cast<double>(rows) * 2.0 /
         (static_cast<double>(cm_.cores) * clock);
}

}  // namespace hh
