// Simulated Intel i7-980 running multithreaded row-row SpGEMM.
//
// The locality argument of paper §III-B in model form: a task's per-flop
// cost interpolates between cached and streaming rates by how much of the
// B rows it touches fits in the shared L3. A_H × B_H touches only the few
// dense B rows → cache-resident → near peak; anything that walks all of B
// is memory-bound.
#pragma once

#include "device/cost_model.hpp"
#include "fault/fault.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {

class CpuSim {
 public:
  explicit CpuSim(const CpuCostModel& cm) : cm_(cm) {}

  /// Time for the rows summarized by `s`, with `b_working_set_bytes` the
  /// size of the B sub-matrix the task repeatedly touches (12 bytes per
  /// nonzero of the masked B side; pass the full-B size when no mask is in
  /// effect; <= 0 means the working set is negligible, i.e. fully cached).
  /// `rewritten` charges the §III-B penalty of the HH-CPU kernel vs MKL.
  /// `blockable` marks products against a small B side (B_H): these can be
  /// column-tiled so wide-output rows avoid the SPA scatter penalty.
  double kernel_time(const ProductStats& s, double b_working_set_bytes,
                     bool rewritten, bool blockable = false) const;

  /// The MKL library baseline: generic kernel (no mask, no blocking) with
  /// the exact-CSR two-pass factor.
  double library_time(const ProductStats& s, double b_working_set_bytes) const;

  /// Phase IV: the paper's Fig. 4 sort + segmented reduction over `tuples`
  /// tuples (the host merges per-row runs instead; same bits, see
  /// primitives/tuple_merge.hpp).
  double merge_time(std::int64_t tuples) const;

  /// Phase I threshold identification over a row-size histogram.
  double classify_time(std::int64_t rows) const;

  /// Injected worker stall for the next CPU stage: extra simulated
  /// occupancy, 0 when healthy or when `fi` is nullptr. Stalls delay but
  /// never fail — the stage's numeric result is unaffected. stall_attempt
  /// additionally reports the injector op index consumed (always ok; the
  /// stall is elapsed_s), for trace identity.
  DeviceAttempt stall_attempt(FaultInjector* fi) const;
  double stall_s(FaultInjector* fi) const;

  const CpuCostModel& model() const { return cm_; }

 private:
  CpuCostModel cm_;
};

}  // namespace hh
