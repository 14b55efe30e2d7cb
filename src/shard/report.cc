#include "shard/report.hpp"

#include <sstream>

#include "util/format.hpp"

namespace hh {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

std::string GroupBatchReport::to_string() const {
  std::ostringstream os;
  os << "group: " << requests << " requests over " << shards << " shards, "
     << rounds << " rounds, makespan " << ms(makespan_s) << "\n";
  os << "  latency p50 " << ms(p50_latency_s) << ", p95 " << ms(p95_latency_s)
     << ", p99 " << ms(p99_latency_s) << "\n";
  os << "  outcome: " << completed << " completed, " << degraded
     << " degraded, " << deadline_missed << " deadline-missed, " << shed
     << " shed\n";
  os << "  churn: " << kills << " kills, " << restarts << " restarts, "
     << failovers << " failovers, " << deferrals << " deferrals\n";
  os << "  faults: gpu " << faults.gpu_aborts << ", h2d " << faults.h2d_faults
     << ", d2h " << faults.d2h_faults << " (" << faults.corruptions
     << " corrupt), cpu stalls " << faults.cpu_stalls << "; retries "
     << faults.retries << ", backoff " << ms(faults.backoff_s)
     << (backoff_jitter ? " (decorrelated jitter)" : "") << "\n";
  if (wave_enabled) {
    os << "  waves: " << wave.waves << " over " << wave.wave_requests
       << " requests; " << wave.uploads << " uploads ("
       << wave.coalesced_uploads << " coalesced, " << wave.deduped_uploads
       << " deduped, " << wave.h2d_bytes << " bytes), "
       << wave.batched_launches << " batched launches, " << wave.evictions
       << " evictions\n";
  }
  os << "  critpath: " << critpath.to_string() << "\n";
  for (const ShardReport& s : shard_reports) {
    os << "  shard " << s.shard << " [" << s.breaker << "]: " << s.assigned
       << " assigned, " << s.completed << " completed, " << s.degraded
       << " degraded, " << s.deadline_missed << " deadline-missed";
    if (s.failovers_out > 0) os << ", " << s.failovers_out << " failed over";
    if (s.kills > 0) {
      os << ", " << s.kills << " kills/" << s.restarts << " restarts";
    }
    if (s.breaker_opens > 0) os << ", " << s.breaker_opens << " breaker opens";
    if (s.rehydrated) os << ", rehydrated";
    if (s.snapshot_rejected) os << ", SNAPSHOT REJECTED";
    os << "\n";
  }
  return os.str();
}

std::string GroupBatchReport::to_json() const {
  std::ostringstream os;
  os << "{\"shards\":" << shards << ",\"requests\":" << requests
     << ",\"completed\":" << completed << ",\"degraded\":" << degraded
     << ",\"deadline_missed\":" << deadline_missed << ",\"shed\":" << shed
     << ",\"failovers\":" << failovers << ",\"deferrals\":" << deferrals
     << ",\"kills\":" << kills << ",\"restarts\":" << restarts
     << ",\"rounds\":" << rounds << ",\"makespan_s\":" << jnum(makespan_s)
     << ",\"p50_latency_s\":" << jnum(p50_latency_s)
     << ",\"p95_latency_s\":" << jnum(p95_latency_s)
     << ",\"p99_latency_s\":" << jnum(p99_latency_s)
     << ",\"faults\":" << faults.to_json();
  // Wave fields appear only when the executor is on, keeping disabled
  // groups' JSON byte-identical to before the executor existed.
  if (wave_enabled) os << ",\"wave\":" << wave.to_json();
  os << ",\"critpath\":" << critpath.to_json();
  os << ",\"backoff_jitter\":" << jbool(backoff_jitter)
     << ",\"shard_reports\":[";
  for (std::size_t i = 0; i < shard_reports.size(); ++i) {
    const ShardReport& s = shard_reports[i];
    if (i > 0) os << ",";
    os << "{\"shard\":" << s.shard << ",\"breaker\":\"" << s.breaker
       << "\",\"assigned\":" << s.assigned << ",\"completed\":" << s.completed
       << ",\"degraded\":" << s.degraded
       << ",\"deadline_missed\":" << s.deadline_missed
       << ",\"failovers_out\":" << s.failovers_out << ",\"kills\":" << s.kills
       << ",\"restarts\":" << s.restarts
       << ",\"breaker_opens\":" << s.breaker_opens
       << ",\"rehydrated\":" << jbool(s.rehydrated)
       << ",\"snapshot_rejected\":" << jbool(s.snapshot_rejected)
       << ",\"faults\":" << s.faults.to_json()
       << ",\"plan_cache\":{\"hits\":" << s.plan_cache.hits
       << ",\"misses\":" << s.plan_cache.misses
       << ",\"evictions\":" << s.plan_cache.evictions
       << ",\"overwrites\":" << s.plan_cache.overwrites
       << ",\"quarantines\":" << s.plan_cache.quarantines << "}";
    if (wave_enabled) os << ",\"wave\":" << s.wave.to_json();
    os << ",\"critpath\":" << s.critpath.to_json();
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string GroupTuneReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    os << "shard " << i << " tuner:\n" << shards[i].to_string();
  }
  return os.str();
}

std::string GroupTuneReport::to_json() const {
  std::ostringstream os;
  os << "{\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) os << ",";
    os << shards[i].to_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace hh
