// Phase I threshold identification (paper §III-A).
//
// The paper picks t empirically (and names analytic identification as
// future work, §VI). We provide both: pick_threshold_analytic() evaluates a
// small candidate grid with structure-only estimates and the device models
// — the architecture-aware analytic method — and threshold_candidates()
// exposes the grid so benches can run the full empirical sweep of Fig. 8.
// The analytic sweep builds every candidate's estimates in one pass over A
// (threshold_stats(), after Liu & Vinter's one-pass binning of rows by an
// upper bound) and prices each with the same arithmetic predict_breakdown()
// applies to a single t.
//
// The online autotuner (src/tune/) closes the remaining gap between the two:
// predict_breakdown() exposes the per-device components of the prediction so
// measured stage times can be compared against them, and every predictor
// accepts a CostCorrection (device/cost_model.hpp) carrying the calibrated
// observed/predicted factors. The default (identity) correction reproduces
// the uncorrected predictions bit-for-bit.
#pragma once

#include <span>
#include <vector>

#include "device/platform.hpp"
#include "sparse/csr.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {

/// Log-spaced candidate thresholds covering the row-size range of `m`
/// (deduplicated, ascending, at most `max_candidates`). Never empty and
/// never contains t <= 1: degenerate inputs (no rows, no nonzeros,
/// all-equal row lengths) fall back to a minimal {2, 3}-style grid.
std::vector<offset_t> threshold_candidates(const CsrMatrix& m,
                                           int max_candidates = 12);

/// The shared candidate grid for the pair (A, B): the deduplicated,
/// ascending union of both matrices' threshold_candidates(). This is the
/// grid every picker (analytic, empirical, online tuner) ranks over.
std::vector<offset_t> threshold_grid(const CsrMatrix& a, const CsrMatrix& b,
                                     int max_candidates = 12);

struct ThresholdChoice {
  offset_t t = 0;
  double predicted_s = 0;  // model-predicted total for this t
};

/// Per-device components of a predicted HH-CPU run at threshold t, so a
/// measured run can be compared stage-by-stage (src/tune/calibration.hpp).
/// cpu_s/gpu_s are predicted busy seconds (Phase II share + the whole
/// overlapped Phase III window + merge on the CPU side); h2d_s/d2h_s are
/// link occupancy. total_s is exactly what predict_total_time() returns.
struct PredictedBreakdown {
  double cpu_s = 0;
  double gpu_s = 0;
  double h2d_s = 0;
  double d2h_s = 0;
  double total_s = 0;
};

/// Structure-only statistics of HH-CPU's four partial products at one
/// threshold t (same t for A and B): each field of each product equals what
/// estimate_partial_product() returns for it over classify_rows(a, t) and
/// classify_rows(b, t). A product run_hh_cpu skips because one of its sides
/// is empty is all-zero, as it is in the cost model.
struct ThresholdStats {
  ProductStats hh;          // A_H × B_H; zero unless A_H and B_H are non-empty
  ProductStats ll;          // A_L × B_L; zero unless A_L and B_L are non-empty
  ProductStats lh;          // A_L × B_H; zero unless B_H is non-empty
  ProductStats hl;          // A_H × B_L; zero unless B_L is non-empty
  index_t a_high_rows = 0;  // |A_H|
  index_t b_high_rows = 0;  // |B_H|
  offset_t b_high_nnz = 0;  // nnz(B_H)
  offset_t b_low_nnz = 0;   // nnz(B_L)
};

/// ThresholdStats for every t of `grid` (strictly ascending), parallel to
/// it, from one pass over A's nonzeros. Each row of A and of B falls in the
/// bucket of grid candidates it is high for (a row of nnz n is high for every
/// t <= n); each A nonzero adds its additive fields to one (A bucket,
/// B bucket) cell, and a running sum over the B buckets of each A row's flops
/// gives that row's flops at every candidate for the per-row fields
/// (rows, max_row_flops, the shared/global split). Costs one pass over A's
/// nonzeros plus O(rows·|grid| + |grid|³), against |grid| passes for one
/// estimate_partial_product() sweep per candidate.
std::vector<ThresholdStats> threshold_stats(const CsrMatrix& a,
                                            const CsrMatrix& b,
                                            std::span<const offset_t> grid);

/// Predict HH-CPU's time components for threshold t (same t for A and B, as
/// in the paper's per-matrix sweep) from symbolic estimates: Phase II is the
/// max of the two device products, Phase III is the harmonic sharing of the
/// cross products between the devices. Each component is scaled by the
/// matching CostCorrection factor before the overlap/harmonic combination.
/// This is threshold_stats() over the one-point grid {t}, priced by the same
/// arithmetic sweep_thresholds() applies to every candidate.
PredictedBreakdown predict_breakdown(const CsrMatrix& a, const CsrMatrix& b,
                                     offset_t t,
                                     const HeteroPlatform& platform,
                                     const CostCorrection& correction = {});

/// predict_breakdown(...).total_s — kept as the compact form every caller
/// that only ranks thresholds uses.
double predict_total_time(const CsrMatrix& a, const CsrMatrix& b, offset_t t,
                          const HeteroPlatform& platform,
                          const CostCorrection& correction = {});

/// The full analytic sweep: predicted total for every grid candidate, plus
/// the argmin. One threshold_stats() table over threshold_grid(a, b) prices
/// every candidate, so predicted_s[i] is bit-identical to
/// predict_total_time(a, b, grid[i], ...). pick_threshold_analytic() is this
/// sweep reduced to its best entry; the online tuner keeps the whole ranking
/// so exploration can try near-tied candidates in predicted order.
struct ThresholdSweep {
  std::vector<offset_t> grid;       // ascending, deduplicated
  std::vector<double> predicted_s;  // parallel to grid
  std::size_t best = 0;             // argmin index into grid/predicted_s

  ThresholdChoice choice() const {
    return {grid.empty() ? 0 : grid[best],
            grid.empty() ? 0.0 : predicted_s[best]};
  }
};

ThresholdSweep sweep_thresholds(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                const CostCorrection& correction = {});

/// argmin over threshold_grid() of predict_total_time().
ThresholdChoice pick_threshold_analytic(const CsrMatrix& a,
                                        const CsrMatrix& b,
                                        const HeteroPlatform& platform,
                                        const CostCorrection& correction = {});

/// The paper's method (§III-A): run the full algorithm for every candidate
/// threshold and keep the best *measured* total. Costs one full multiply per
/// candidate; the experiment harness uses this, mirroring the paper's
/// offline per-matrix tuning, while pick_threshold_analytic() is the cheap
/// in-line default.
ThresholdChoice pick_threshold_empirical(const CsrMatrix& a,
                                         const CsrMatrix& b,
                                         const HeteroPlatform& platform,
                                         ThreadPool& pool);

}  // namespace hh
