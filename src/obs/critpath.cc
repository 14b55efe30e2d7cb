#include "obs/critpath.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "util/check.hpp"
#include "util/format.hpp"

namespace hh {

namespace {

std::string pct(double num, double den) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", den > 0 ? 100.0 * num / den : 0.0);
  return buf;
}

bool ends_with(const char* s, const char* suffix) {
  const std::size_t n = std::strlen(s);
  const std::size_t m = std::strlen(suffix);
  return n >= m && std::strcmp(s + (n - m), suffix) == 0;
}

// A placement whose span was burnt by an injected fault: failed transfer
// attempts ("h2d-input-fault", "wave-h2d-input-fault", "d2h-tuples-fault")
// and aborted kernels ("phase2-gpu-abort", "phase3-gpu-abort").
bool is_fault_stage(const char* stage) {
  return ends_with(stage, "-fault") || ends_with(stage, "-abort");
}

long long req_json_id(std::size_t id) {
  return id == kNoPlacementRequest ? -1 : static_cast<long long>(id);
}

int argmax_lane(const double (&v)[kCritLaneCount]) {
  int best = 0;
  for (int i = 1; i < kCritLaneCount; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace

const char* crit_lane_name(int lane) {
  switch (lane) {
    case 0: return "cpu";
    case 1: return "gpu";
    case 2: return "h2d";
    case 3: return "d2h";
    case kIdleLane: return "idle";
    default: return "?";
  }
}

int RequestCostBreakdown::bottleneck_lane() const {
  // Per-lane cost as the request experienced it: occupancy plus the time its
  // stages sat runnable behind other requests on the same resource. Lane
  // kResourceCount stands for admission queue wait.
  double cost[kCritLaneCount];
  for (int i = 0; i < kResourceCount; ++i) cost[i] = service_s[i] + queueing_s[i];
  cost[kIdleLane] = queue_wait_s;
  return argmax_lane(cost);
}

std::string RequestCostBreakdown::explain() const {
  const int lane = bottleneck_lane();
  std::ostringstream os;
  os << "request " << req_json_id(request_id);
  if (!label.empty()) os << " (" << label << ")";
  os << ": latency " << jnum(latency_s) << " s; bottleneck ";
  if (lane == kIdleLane) {
    os << "admission-wait (" << jnum(queue_wait_s) << " s in queue)";
  } else {
    os << crit_lane_name(lane) << " (service " << jnum(service_s[lane])
       << " s, queueing " << jnum(queueing_s[lane]) << " s)";
  }
  os << "; queue wait " << jnum(queue_wait_s) << " s; fault overhead "
     << jnum(fault_s) << " s; backoff " << jnum(backoff_s)
     << " s; on batch critical path " << jnum(crit_path_s) << " s";
  return os.str();
}

int CritPathSummary::bottleneck_lane() const { return argmax_lane(attributed_s); }

void CritPathSummary::accumulate(const CritPathSummary& other) {
  makespan_s += other.makespan_s;
  for (int i = 0; i < kCritLaneCount; ++i) {
    attributed_s[i] += other.attributed_s[i];
  }
}

std::string CritPathSummary::to_string() const {
  std::ostringstream os;
  os << "bottleneck " << crit_lane_name(bottleneck_lane()) << ";";
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << " " << crit_lane_name(i) << " " << pct(attributed_s[i], makespan_s);
  }
  os << " of " << jnum(makespan_s) << " s";
  return os.str();
}

std::string CritPathSummary::to_json() const {
  std::ostringstream os;
  os << "{\"makespan_s\":" << jnum(makespan_s);
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << ",\"" << crit_lane_name(i) << "\":" << jnum(attributed_s[i]);
  }
  os << ",\"bottleneck\":\"" << crit_lane_name(bottleneck_lane()) << "\"}";
  return os.str();
}

int CritPathReport::bottleneck_lane() const { return argmax_lane(attributed_s); }

CritPathSummary CritPathReport::summary() const {
  CritPathSummary s;
  s.makespan_s = makespan_s;
  for (int i = 0; i < kCritLaneCount; ++i) s.attributed_s[i] = attributed_s[i];
  return s;
}

const RequestCostBreakdown* CritPathReport::find_request(std::size_t id) const {
  for (const RequestCostBreakdown& b : requests) {
    if (b.request_id == id) return &b;
  }
  return nullptr;
}

std::string CritPathReport::to_string() const {
  std::ostringstream os;
  os << "bottleneck " << crit_lane_name(bottleneck_lane()) << ";";
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << " " << crit_lane_name(i) << " " << pct(attributed_s[i], makespan_s);
  }
  os << " of " << jnum(makespan_s) << " s makespan; chain " << steps.size()
     << " steps";
  return os.str();
}

std::string CritPathReport::to_json() const {
  std::ostringstream os;
  os << "{\"makespan_s\":" << jnum(makespan_s) << ",\"attributed_s\":{";
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << (i ? "," : "") << "\"" << crit_lane_name(i)
       << "\":" << jnum(attributed_s[i]);
  }
  os << "},\"bottleneck\":\"" << crit_lane_name(bottleneck_lane())
     << "\",\"steps\":[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const CritPathStep& s = steps[i];
    os << (i ? "," : "") << "{\"stage\":\"" << s.stage << "\",\"lane\":\""
       << crit_lane_name(s.lane) << "\",\"request\":" << req_json_id(s.request_id)
       << ",\"wave_index\":" << s.wave << ",\"start_s\":" << jnum(s.start_s)
       << ",\"end_s\":" << jnum(s.end_s)
       << ",\"attributed_s\":" << jnum(s.attributed_s)
       << ",\"queue_delay_s\":" << jnum(s.queue_delay_s) << "}";
  }
  os << "],\"requests\":[";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestCostBreakdown& b = requests[i];
    const int lane = b.bottleneck_lane();
    os << (i ? "," : "") << "{\"request_id\":" << req_json_id(b.request_id)
       << ",\"label\":\"";
    append_escaped(os, b.label);
    os << "\",\"bottleneck\":\""
       << (lane == kIdleLane ? "wait" : crit_lane_name(lane))
       << "\",\"queue_wait_s\":" << jnum(b.queue_wait_s)
       << ",\"latency_s\":" << jnum(b.latency_s)
       << ",\"backoff_s\":" << jnum(b.backoff_s)
       << ",\"fault_s\":" << jnum(b.fault_s)
       << ",\"crit_path_s\":" << jnum(b.crit_path_s);
    for (int r = 0; r < kResourceCount; ++r) {
      os << ",\"" << crit_lane_name(r) << "_service_s\":" << jnum(b.service_s[r])
         << ",\"" << crit_lane_name(r)
         << "_queueing_s\":" << jnum(b.queueing_s[r]);
    }
    os << "}";
  }
  os << "],\"waves\":[";
  for (std::size_t i = 0; i < waves.size(); ++i) {
    const CritPathWaveSlice& w = waves[i];
    os << (i ? "," : "") << "{\"wave_index\":" << w.wave_index;
    for (int r = 0; r < kCritLaneCount; ++r) {
      os << ",\"" << crit_lane_name(r) << "\":" << jnum(w.attributed_s[r]);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

CritPathReport compute_critical_path(
    const std::vector<Placement>& placements, double makespan_s,
    const std::vector<CritPathRequestInfo>& request_infos) {
  CritPathReport r;
  r.makespan_s = makespan_s;

  // ---- Per-request decomposition: placement occupancy and queueing delay
  // folded onto the service-side accounting (queue wait, latency, backoff).
  std::unordered_map<std::size_t, std::size_t> breakdown_of;
  r.requests.reserve(request_infos.size());
  for (const CritPathRequestInfo& info : request_infos) {
    RequestCostBreakdown b;
    b.request_id = info.request_id;
    b.label = info.label;
    b.queue_wait_s = info.queue_wait_s;
    b.latency_s = info.latency_s;
    b.backoff_s = info.backoff_s;
    breakdown_of.emplace(info.request_id, r.requests.size());
    r.requests.push_back(std::move(b));
  }
  for (const Placement& p : placements) {
    const auto it = breakdown_of.find(p.request_id);
    if (it == breakdown_of.end()) continue;
    RequestCostBreakdown& b = r.requests[it->second];
    const int lane = static_cast<int>(p.resource);
    b.service_s[lane] += p.duration_s();
    b.queueing_s[lane] += std::max(0.0, p.queue_delay_s());
    if (is_fault_stage(p.stage)) b.fault_s += p.duration_s();
  }

  if (makespan_s <= 0 || placements.empty()) return r;

  // ---- Backward dependency walk from the makespan. Each iteration either
  // covers the placement ending at the cursor (charging [start, cursor) to
  // its resource) or crosses an idle gap down to the latest earlier
  // placement end. The cursor strictly decreases, so the attributed
  // segments tile [0, makespan) exactly and the walk terminates.
  const double eps = std::max(1e-15, makespan_s * 1e-12);
  constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  // Preference for the next link: after a step that started later than its
  // dependences allowed, the binding edge is resource contention — prefer
  // the same-resource predecessor that held the resource. Otherwise prefer
  // the same request's placement (the dependence edge). Ties break on log
  // order (earliest wins) for determinism.
  auto find_ending_at = [&](double t, int prefer_resource,
                            std::size_t prefer_request) -> std::size_t {
    std::size_t best = kNpos;
    int best_rank = 3;
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const Placement& p = placements[i];
      if (p.end_s < t - eps || p.end_s > t + eps) continue;
      if (p.start_s >= t) continue;  // must make progress
      int rank = 2;
      if (prefer_resource >= 0 && static_cast<int>(p.resource) == prefer_resource) {
        rank = 0;
      } else if (prefer_request != kNoPlacementRequest &&
                 p.request_id == prefer_request) {
        rank = 1;
      }
      if (rank < best_rank) {
        best = i;
        best_rank = rank;
      }
    }
    return best;
  };

  double cursor = makespan_s;
  int prefer_resource = -1;
  std::size_t prefer_request = kNoPlacementRequest;
  std::vector<CritPathStep> chain;  // built backward, reversed below
  const std::size_t max_steps = 4 * placements.size() + 16;
  while (cursor > eps) {
    HH_CHECK_MSG(chain.size() < max_steps,
                 "critical-path walk failed to converge");
    const std::size_t idx = find_ending_at(cursor, prefer_resource,
                                           prefer_request);
    if (idx == kNpos) {
      // Idle gap: nothing ends at the cursor, so nothing the cursor-side
      // work waited on was running — admission gap or retry backoff. Cross
      // down to the latest earlier placement end.
      double lo = 0;
      for (const Placement& p : placements) {
        if (p.end_s < cursor - eps) lo = std::max(lo, p.end_s);
      }
      CritPathStep st;
      st.start_s = lo;
      st.end_s = cursor;
      st.attributed_s = cursor - lo;
      chain.push_back(st);
      cursor = lo;
      prefer_resource = -1;
      prefer_request = kNoPlacementRequest;
      continue;
    }
    const Placement& p = placements[idx];
    CritPathStep st;
    st.stage = p.stage;
    st.lane = static_cast<int>(p.resource);
    st.request_id = p.request_id;
    st.wave = p.wave;
    st.start_s = p.start_s;
    st.end_s = cursor;
    st.attributed_s = cursor - p.start_s;
    st.queue_delay_s = std::max(0.0, p.queue_delay_s());
    chain.push_back(st);
    cursor = p.start_s;
    if (p.start_s > p.requested_s + eps) {
      // The stage was runnable earlier but its resource was occupied: the
      // chain continues through whoever held the resource.
      prefer_resource = static_cast<int>(p.resource);
      prefer_request = kNoPlacementRequest;
    } else {
      prefer_resource = -1;
      prefer_request = p.request_id;
    }
  }

  std::reverse(chain.begin(), chain.end());
  r.steps = std::move(chain);

  // ---- Rollups from the chain.
  for (const CritPathStep& s : r.steps) {
    r.attributed_s[s.lane] += s.attributed_s;
    const auto it = breakdown_of.find(s.request_id);
    if (it != breakdown_of.end()) {
      r.requests[it->second].crit_path_s += s.attributed_s;
    }
    if (s.wave != kNoWave) {
      auto w = std::find_if(
          r.waves.begin(), r.waves.end(),
          [&](const CritPathWaveSlice& ws) { return ws.wave_index == s.wave; });
      if (w == r.waves.end()) {
        CritPathWaveSlice ws;
        ws.wave_index = s.wave;
        r.waves.push_back(ws);
        w = r.waves.end() - 1;
      }
      w->attributed_s[s.lane] += s.attributed_s;
    }
  }
  std::sort(r.waves.begin(), r.waves.end(),
            [](const CritPathWaveSlice& a, const CritPathWaveSlice& b) {
              return a.wave_index < b.wave_index;
            });
  return r;
}

}  // namespace hh
