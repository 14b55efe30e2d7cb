// Independently-clocked resource timelines for the pipelined runtime.
//
// The simulated platform has four channels that can make progress
// concurrently: the CPU, the GPU, and the two directions of the full-duplex
// PCIe link. DESIGN.md's single overlap() accounting collapses them into one
// request-local clock; the runtime instead keeps one ResourceTimeline per
// channel so stages of *different* requests overlap wherever their
// dependences allow (software pipelining).
//
// reserve() is an insertion scheduler: a stage is placed into the earliest
// idle window on its resource that fits entirely and starts no earlier than
// its dependences allow — so, e.g., request k+1's Phase I analysis can run
// on the CPU inside the window where request k's tuples are still crossing
// the D2H channel. Everything is deterministic.
//
// When a TraceRecorder is attached, every placement is recorded with both
// the dependence-allowed earliest start and the granted start, so pipeline
// bubbles are directly visible in the exported trace
// (docs/observability.md).
#pragma once

#include <algorithm>
#include <vector>

#include "runtime/placement.hpp"
#include "runtime/resource.hpp"
#include "trace/trace.hpp"

namespace hh {

class ResourceTimeline {
 public:
  explicit ResourceTimeline(Resource r = Resource::kCpu,
                            TraceRecorder* trace = nullptr)
      : resource_(r), trace_(trace) {}

  /// Attach a placement-provenance log: every positive-duration reservation
  /// from here on is appended with the log's current request/wave context
  /// (obs/critpath.* consumes it for latency attribution).
  void attach_placements(PlacementLog* log) { placements_ = log; }

  /// Clock after the last scheduled stage.
  double now() const { return now_; }

  /// Total occupied time (excludes idle windows).
  double busy() const { return busy_; }

  /// The earliest instant >= `earliest` at which this resource is not
  /// occupied: `earliest` itself past the frontier, the first idle window
  /// still open at `earliest`, or the frontier.
  double available_at(double earliest) const {
    if (earliest >= now_) return earliest;
    for (const Gap& g : gaps_) {
      if (g.end >= earliest) return std::max(g.start, earliest);
    }
    return now_;
  }

  /// Schedule a stage of `duration` seconds starting no earlier than
  /// `earliest`: placed into the first idle window that fits, else appended
  /// at the end (recording the idle window this opens, if any). A
  /// non-positive duration occupies nothing and returns a zero-length span
  /// clamped to the resource's true availability — never inside an occupied
  /// window — so traces stay ordered.
  StageSpan reserve(const char* stage, double earliest, double duration) {
    if (duration <= 0) {
      const double at = available_at(earliest);
      return {stage, resource_, at, at};
    }
    for (std::size_t i = 0; i < gaps_.size(); ++i) {
      const double start = std::max(gaps_[i].start, earliest);
      if (start + duration <= gaps_[i].end) {
        const Gap g = gaps_[i];
        gaps_.erase(gaps_.begin() + static_cast<std::ptrdiff_t>(i));
        if (g.start < start) {
          gaps_.insert(gaps_.begin() + static_cast<std::ptrdiff_t>(i),
                       Gap{g.start, start});
          ++i;
        }
        if (start + duration < g.end) {
          gaps_.insert(gaps_.begin() + static_cast<std::ptrdiff_t>(i),
                       Gap{start + duration, g.end});
        }
        busy_ += duration;
        return record(stage, earliest, start, start + duration);
      }
    }
    const double start = std::max(now_, earliest);
    if (start > now_) gaps_.push_back({now_, start});
    now_ = start + duration;
    busy_ += duration;
    return record(stage, earliest, start, now_);
  }

  /// The earliest instant >= `earliest` at which `total` contiguous seconds
  /// fit on this resource: the first idle window that admits the whole
  /// block, else the frontier. Sub-reserving segments back-to-back from the
  /// returned instant (each with `earliest` = the previous segment's end)
  /// keeps them inside that window with no idle time between them — no
  /// earlier gap can claim a segment, because every earlier gap closes at
  /// or before the block's start.
  double block_start(double earliest, double total) const {
    if (total <= 0) return available_at(earliest);
    for (const Gap& g : gaps_) {
      const double start = std::max(g.start, earliest);
      if (start + total <= g.end) return start;
    }
    return std::max(now_, earliest);
  }

 private:
  struct Gap {
    double start;
    double end;
  };

  StageSpan record(const char* stage, double requested, double start,
                   double end) {
    if (placements_ != nullptr) {
      placements_->append(stage, resource_, requested, start, end);
    }
    if (trace_ != nullptr) {
      const bool transfer =
          resource_ == Resource::kH2D || resource_ == Resource::kD2H;
      trace_->span(transfer ? TraceCategory::kTransfer
                            : TraceCategory::kCompute,
                   stage, resource_, start, end, requested);
    }
    return {stage, resource_, start, end};
  }

  Resource resource_;
  TraceRecorder* trace_ = nullptr;
  PlacementLog* placements_ = nullptr;
  std::vector<Gap> gaps_;  // idle windows, ascending, disjoint
  double now_ = 0;
  double busy_ = 0;
};

}  // namespace hh
