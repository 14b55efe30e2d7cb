// Merged group-level reporting for the sharded service.
//
// One group drain produces a GroupBatchReport: batch-style aggregates over
// every request the group executed (whichever shard ran it), plus one
// ShardReport row per shard with its routing, breaker, failover and
// restart/rehydration accounting. tune_report() produces a GroupTuneReport:
// the per-shard TuneReports side by side. Rendering follows the same
// determinism contract as the rest of the runtime (fixed field order, fixed
// numeric formats), so two same-seed group runs — including runs with
// kills, restarts and failovers — print byte-identical JSON.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/service.hpp"
#include "tune/report.hpp"

namespace hh {

/// Circuit-breaker state of one shard, as the group's router sees it.
enum class BreakerState {
  kClosed = 0,    // healthy: takes its full round quantum
  kOpen = 1,      // tripped (or killed): receives no traffic
  kHalfOpen = 2,  // probing: takes a limited number of requests
};

const char* to_string(BreakerState s);

/// Per-shard accounting over one group drain.
struct ShardReport {
  std::size_t shard = 0;
  std::string breaker;            // state at the end of the drain, or "dead"
  std::size_t assigned = 0;       // requests submitted to this shard
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t deadline_missed = 0;
  std::size_t failovers_out = 0;  // re-routed away after this shard's kill
  std::size_t kills = 0;
  std::size_t restarts = 0;
  std::size_t breaker_opens = 0;  // health-driven opens (kills not included)
  bool rehydrated = false;          // restart restored a snapshot
  bool snapshot_rejected = false;   // checksum verification failed
  FaultRecoveryStats faults;        // device-level faults seen by this shard
  PlanCache::Stats plan_cache;      // lifetime stats of the current service
  WaveStats wave;                   // per-shard wave accounting; reported
                                    // only when the group's wave executor
                                    // is enabled
  CritPathSummary critpath;         // per-shard critical-path attribution
                                    // accumulated over the shard's drains
                                    // (makespan_s sums round makespans);
                                    // reported only when the group's
                                    // profiler is enabled
};

/// Group-level accounting across one ShardedSpgemmService::drain().
struct GroupBatchReport {
  std::size_t shards = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t deadline_missed = 0;
  std::size_t shed = 0;       // rejected at group submit since last drain
  std::size_t failovers = 0;  // requests re-routed off a killed/open shard
  std::size_t deferrals = 0;  // request-rounds spent waiting for capacity
  std::size_t kills = 0;
  std::size_t restarts = 0;
  std::size_t rounds = 0;
  double makespan_s = 0;  // group clock at the last request's finish
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  FaultRecoveryStats faults;  // aggregated over all shards
  // Wave accounting aggregated over all shards (runtime/wave.hpp): each
  // shard runs its own waves over the requests routed to it. Omitted from
  // to_string/to_json unless wave_enabled, so a wave-disabled group renders
  // byte-identically to before the executor existed.
  bool wave_enabled = false;
  WaveStats wave;
  // Critical-path attribution summed over all shards' drains
  // (obs/critpath.hpp): "critical seconds" per lane across the group, not
  // wall time — shards drain on independent clocks.
  CritPathSummary critpath;
  bool backoff_jitter = false;
  std::vector<ShardReport> shard_reports;  // index == shard

  std::string to_string() const;
  std::string to_json() const;
};

struct GroupResult {
  std::vector<RunResult> results;        // group submit order
  std::vector<RequestReport> requests;   // group submit order; ids are group
                                         // ids and times are on the group
                                         // clock
  GroupBatchReport group;
};

/// Per-shard tuner state side by side (index == shard). A shard that is
/// dead at reporting time contributes a default (empty) TuneReport.
struct GroupTuneReport {
  std::vector<TuneReport> shards;

  std::string to_string() const;
  std::string to_json() const;
};

}  // namespace hh
