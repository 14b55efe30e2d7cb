#include "obs/perf_baseline.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "runtime/service.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace hh {

namespace {

std::string jpct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.2f%%", v * 100.0);
  return buf;
}

int lane_index(const std::string& name) {
  for (int i = 0; i < kCritLaneCount; ++i) {
    if (name == crit_lane_name(i)) return i;
  }
  return -1;
}

PerfBaseline parse_record(const JsonValue& record) {
  PerfBaseline b;
  for (const JsonValue& field : record.members()) {
    const std::string& key = field.key();
    if (key == "bench") {
      b.bench = field.str();
    } else if (key == "scale") {
      b.scale = field.f64();
    } else if (key == "requests") {
      b.requests = field.i64();
    } else if (key == "makespan_s") {
      b.makespan_s = field.f64();
    } else if (key == "p50_latency_s") {
      b.p50_latency_s = field.f64();
    } else if (key == "p95_latency_s") {
      b.p95_latency_s = field.f64();
    } else if (key == "p99_latency_s") {
      b.p99_latency_s = field.f64();
    } else if (key == "attributed_s") {
      for (const JsonValue& lane : field.members()) {
        const int idx = lane_index(lane.key());
        if (idx < 0) {
          throw ParseError("baseline JSON: unknown lane \"" + lane.key() +
                           "\"");
        }
        b.attributed_s[idx] = lane.f64();
      }
    }  // other keys: skipped, for forward compatibility
  }
  if (b.bench.empty()) {
    throw ParseError("baseline JSON: record is missing \"bench\"");
  }
  return b;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os << "{\"bench\":\"";
  append_escaped(os, bench);
  os << "\",\"scale\":" << jexact(scale)
     << ",\"requests\":" << requests
     << ",\"makespan_s\":" << jexact(makespan_s)
     << ",\"p50_latency_s\":" << jexact(p50_latency_s)
     << ",\"p95_latency_s\":" << jexact(p95_latency_s)
     << ",\"p99_latency_s\":" << jexact(p99_latency_s) << ",\"attributed_s\":{";
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << (i ? "," : "") << "\"" << crit_lane_name(i)
       << "\":" << jexact(attributed_s[i]);
  }
  os << "}}";
  return os.str();
}

PerfBaseline baseline_from_batch(const std::string& bench, double scale,
                                 const BatchReport& batch) {
  PerfBaseline b;
  b.bench = bench;
  b.scale = scale;
  b.requests = static_cast<std::int64_t>(batch.requests);
  b.makespan_s = batch.makespan_s;
  b.p50_latency_s = batch.p50_latency_s;
  b.p95_latency_s = batch.p95_latency_s;
  b.p99_latency_s = batch.p99_latency_s;
  for (int i = 0; i < kCritLaneCount; ++i) {
    b.attributed_s[i] = batch.critpath.attributed_s[i];
  }
  return b;
}

std::string render_perf_baselines(const std::vector<PerfBaseline>& baselines) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < baselines.size(); ++i) {
    os << (i ? ",\n " : "\n ") << baselines[i].to_json();
  }
  os << "\n]\n";
  return os.str();
}

std::vector<PerfBaseline> parse_perf_baselines(const std::string& text) {
  const JsonValue root = parse_json(text, "baseline JSON");
  if (root.kind() != JsonValue::Kind::kArray) return {parse_record(root)};
  std::vector<PerfBaseline> out;
  for (const JsonValue& record : root.items()) {
    out.push_back(parse_record(record));
  }
  return out;
}

std::string PerfDiff::to_string() const {
  std::ostringstream os;
  os << (regressed ? "REGRESSED" : "OK") << " (" << findings.size()
     << " regressions, " << improvements.size() << " improvements)\n";
  for (const std::string& f : findings) os << "  REGRESSION: " << f << "\n";
  for (const std::string& f : improvements) os << "  improved: " << f << "\n";
  for (const std::string& f : notes) os << "  note: " << f << "\n";
  return os.str();
}

std::string PerfDiff::to_json() const {
  const auto arr = [](const std::vector<std::string>& v) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? ",\"" : "\"");
      append_escaped(os, v[i]);
      os << "\"";
    }
    os << "]";
    return os.str();
  };
  std::ostringstream os;
  os << "{\"regressed\":" << jbool(regressed)
     << ",\"findings\":" << arr(findings)
     << ",\"improvements\":" << arr(improvements) << ",\"notes\":" << arr(notes)
     << "}";
  return os.str();
}

PerfDiff compare_perf_baselines(const std::vector<PerfBaseline>& baseline,
                                const std::vector<PerfBaseline>& fresh,
                                const PerfCompareOptions& opts) {
  PerfDiff d;
  const auto find = [&](const std::string& bench) -> const PerfBaseline* {
    for (const PerfBaseline& b : fresh) {
      if (b.bench == bench) return &b;
    }
    return nullptr;
  };
  const auto rel = [](double now, double was) {
    return was > 0 ? now / was - 1.0 : 0.0;
  };

  for (const PerfBaseline& old : baseline) {
    const PerfBaseline* cur = find(old.bench);
    if (cur == nullptr) {
      d.findings.push_back(old.bench + ": missing from the new run");
      continue;
    }
    if (cur->scale != old.scale || cur->requests != old.requests) {
      std::ostringstream os;
      os << old.bench << ": not comparable (scale " << old.scale << " -> "
         << cur->scale << ", requests " << old.requests << " -> "
         << cur->requests << ")";
      d.findings.push_back(os.str());
      continue;
    }
    const struct {
      const char* what;
      double was, now, tol;
    } bands[] = {
        {"makespan_s", old.makespan_s, cur->makespan_s, opts.makespan_rel_tol},
        {"p95_latency_s", old.p95_latency_s, cur->p95_latency_s,
         opts.latency_rel_tol},
        {"p99_latency_s", old.p99_latency_s, cur->p99_latency_s,
         opts.latency_rel_tol},
    };
    for (const auto& band : bands) {
      const double delta = rel(band.now, band.was);
      std::ostringstream os;
      os << old.bench << ": " << band.what << " " << jexact(band.was) << " -> "
         << jexact(band.now) << " (" << jpct(delta) << ", band "
         << jpct(band.tol) << ")";
      if (delta > band.tol) {
        d.findings.push_back(os.str());
      } else if (delta < -band.tol) {
        d.improvements.push_back(os.str());
      }
    }
    // Attribution structure: each lane's share of the makespan must stay
    // within an absolute band. Catches "same makespan, but the bottleneck
    // migrated to the PCIe link" drifts the scalar bands cannot see.
    for (int lane = 0; lane < kCritLaneCount; ++lane) {
      const double was_frac =
          old.makespan_s > 0 ? old.attributed_s[lane] / old.makespan_s : 0;
      const double now_frac =
          cur->makespan_s > 0 ? cur->attributed_s[lane] / cur->makespan_s : 0;
      if (std::abs(now_frac - was_frac) > opts.attribution_abs_tol) {
        std::ostringstream os;
        os << old.bench << ": critpath share of " << crit_lane_name(lane)
           << " shifted " << jpct(was_frac) << " -> " << jpct(now_frac)
           << " (band +/-" << jpct(opts.attribution_abs_tol) << ")";
        d.findings.push_back(os.str());
      }
    }
  }
  for (const PerfBaseline& b : fresh) {
    bool known = false;
    for (const PerfBaseline& old : baseline) known |= old.bench == b.bench;
    if (!known) {
      d.notes.push_back(b.bench +
                        ": new bench (not in baseline; refresh to adopt)");
    }
  }
  d.regressed = !d.findings.empty();
  return d;
}

}  // namespace hh
