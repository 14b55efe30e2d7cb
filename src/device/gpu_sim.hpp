// Simulated Tesla K20c running the warp-per-row row-row SpGEMM kernel of
// [13] (paper §II-A(b)). Converts ProductStats of an actually-executed
// kernel into simulated seconds. See cost_model.hpp for the model terms.
#pragma once

#include "device/cost_model.hpp"
#include "fault/fault.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {

class GpuSim {
 public:
  explicit GpuSim(const GpuCostModel& cm) : cm_(cm) {}

  /// Time of one launch of the [13] warp-per-row kernel over the rows
  /// summarized by `s`. Roofline of ALU issue, memory traffic, and the
  /// serial heaviest-row tail, plus launch overhead. `lead == false` is
  /// batched (wave) costing: a follower launch rides the already-hot
  /// dispatch queue behind the wave's first healthy launch and skips the
  /// launch overhead.
  double kernel_time(const ProductStats& s, bool lead = true) const;

  /// cuSPARSE-like generic kernel (expand–sort–contract): pays sort traffic
  /// proportional to flops. The GPU-only library baseline of Fig. 6.
  double generic_time(const ProductStats& s) const;

  /// Phase I: build the Boolean high/low row array for `rows` rows.
  double classify_time(std::int64_t rows) const;

  /// Phase IV share when the GPU pre-sorts its own tuples before transfer.
  double tuple_sort_time(std::int64_t tuples) const;

  /// One launch under fault injection (pass nullptr for a guaranteed-healthy
  /// attempt). A transient abort occupies the device for part of the launch
  /// (never less than the launch overhead, even for a follower — a
  /// re-launch is a fresh dispatch) and produces no usable result — the
  /// caller re-launches or degrades to the CPU path. Launches with no work
  /// (kernel_time == 0) never consume an injector op, so the fault schedule
  /// is stable across degenerate partitions.
  DeviceAttempt kernel_attempt(const ProductStats& s, FaultInjector* fi,
                               bool lead = true) const;

  const GpuCostModel& model() const { return cm_; }

 private:
  GpuCostModel cm_;
};

}  // namespace hh
