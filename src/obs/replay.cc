#include "obs/replay.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "fault/checksum.hpp"
#include "obs/critpath.hpp"
#include "obs/timeseries.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

bool bit_identical(const CsrMatrix& x, const CsrMatrix& y) {
  return x.rows == y.rows && x.cols == y.cols && x.indptr == y.indptr &&
         x.indices == y.indices && x.values == y.values;
}

// [begin, end) index ranges over log.records, one per recorded drain.
std::vector<std::pair<std::size_t, std::size_t>> wave_ranges(
    const WorkloadLog& log) {
  std::vector<std::pair<std::size_t, std::size_t>> waves;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= log.records.size(); ++i) {
    if (i == log.records.size() ||
        log.records[i].drain != log.records[begin].drain) {
      waves.emplace_back(begin, i);
      begin = i;
    }
  }
  return waves;
}

}  // namespace

std::string ReplayRunReport::to_json() const {
  std::ostringstream os;
  os << "{\"name\":\"" << name << "\",\"requests\":" << requests
     << ",\"completed\":" << completed << ",\"degraded\":" << degraded
     << ",\"deadline_missed\":" << deadline_missed << ",\"lost\":" << lost
     << ",\"outcome_divergence\":" << outcome_divergence
     << ",\"identity_mismatches\":" << identity_mismatches
     << ",\"promotions\":" << promotions
     << ",\"makespan_s\":" << jexact(makespan_s)
     << ",\"p50_latency_s\":" << jexact(p50_latency_s)
     << ",\"p95_latency_s\":" << jexact(p95_latency_s)
     << ",\"p99_latency_s\":" << jexact(p99_latency_s)
     << ",\"output_digest\":" << output_digest
     << ",\"slo_reconciled\":" << jbool(slo_reconciled)
     << ",\"slo\":" << (slo_json.empty() ? "null" : slo_json)
     << ",\"timeline\":" << (timeline_json.empty() ? "null" : timeline_json)
     << ",\"slowest\":";
  if (slowest.empty()) {
    os << "null";
  } else {
    os << "\"";
    append_escaped(os, slowest);  // embeds the request label
    os << "\"";
  }
  os << "}";
  return os.str();
}

std::string ReplayReport::to_string() const {
  std::ostringstream os;
  os << "replay: " << records << " records over " << waves << " wave(s), "
     << (open_loop ? "open loop" : "closed loop");
  if (open_loop) os << " (speed " << speed << "x)";
  if (shards > 0) os << ", " << shards << " shards";
  os << "\n";
  const auto row = [&](const ReplayRunReport& r) {
    os << "  " << r.name << ": makespan " << ms(r.makespan_s) << ", p50 "
       << ms(r.p50_latency_s) << ", p95 " << ms(r.p95_latency_s) << ", p99 "
       << ms(r.p99_latency_s) << "; " << r.completed << " completed, "
       << r.deadline_missed << " missed, " << r.lost << " lost, "
       << r.identity_mismatches << " identity mismatch(es), " << r.promotions
       << " promotion(s)" << (r.slo_reconciled ? "" : " [SLO MISMATCH]")
       << "\n";
    if (!r.slowest.empty()) os << "    slowest: " << r.slowest << "\n";
  };
  row(untuned);
  row(tuned);
  os << "  tuned vs untuned: makespan " << makespan_speedup << "x, p95 "
     << p95_speedup << "x\n";
  return os.str();
}

std::string ReplayReport::to_json() const {
  std::ostringstream os;
  os << "{\"records\":" << records << ",\"waves\":" << waves
     << ",\"open_loop\":" << jbool(open_loop)
     << ",\"speed\":" << jexact(speed) << ",\"shards\":" << shards
     << ",\"untuned\":" << untuned.to_json()
     << ",\"tuned\":" << tuned.to_json()
     << ",\"makespan_speedup\":" << jexact(makespan_speedup)
     << ",\"p50_speedup\":" << jexact(p50_speedup)
     << ",\"p95_speedup\":" << jexact(p95_speedup)
     << ",\"p99_speedup\":" << jexact(p99_speedup) << "}";
  return os.str();
}

void ReplayHarness::register_operand(const CsrMatrix* m) {
  if (m == nullptr) {
    throw InvalidArgumentError("cannot register a null operand");
  }
  operands_.emplace(matrix_signature(*m), m);
}

const CsrMatrix* ReplayHarness::resolve(const MatrixSignature& sig) const {
  const auto it = operands_.find(sig);
  if (it == operands_.end()) {
    throw InvalidArgumentError(
        "replay log references an unregistered operand signature " +
        hh::to_string(sig));
  }
  return it->second;
}

const CsrMatrix& ReplayHarness::reference(const CsrMatrix* a,
                                          const CsrMatrix* b, offset_t ta,
                                          offset_t tb) {
  const auto key = std::make_tuple(static_cast<const void*>(a),
                                   static_cast<const void*>(b), ta, tb);
  auto it = references_.find(key);
  if (it == references_.end()) {
    HhCpuOptions opt;
    opt.threshold_a = ta;
    opt.threshold_b = tb;
    it = references_
             .emplace(key, run_hh_cpu(*a, b != a ? *b : *a, opt, platform_,
                                      pool_)
                               .c)
             .first;
  }
  return it->second;
}

ReplayRunReport ReplayHarness::run_pass(const WorkloadLog& log,
                                        const ReplayOptions& opts,
                                        bool tuned) {
  ReplayRunReport r;
  r.name = tuned ? "tuned" : "untuned";
  r.output_digest = kFnv1aOffset;

  SpgemmService::Config cfg = opts.service;
  cfg.admission_capacity = 0;   // the log already shaped admission
  cfg.default_deadline_s = 0;   // the record's deadline is authoritative
  cfg.recorder = nullptr;       // a replay is not re-recorded
  cfg.tune.enabled = tuned;
  if (tuned) cfg.tune.seed = opts.seed;

  SloMonitor slo(opts.slo);
  cfg.slo = &slo;

  std::optional<SpgemmService> svc;
  std::optional<ShardedSpgemmService> group;
  MetricsRegistry* registry = nullptr;
  if (opts.shards == 0) {
    svc.emplace(platform_, pool_, cfg);
    registry = &svc->metrics();
  } else {
    ShardedSpgemmService::Config gcfg;
    gcfg.shards = opts.shards;
    gcfg.seed = opts.seed;
    gcfg.shard = cfg;
    gcfg.slo = &slo;
    group.emplace(platform_, pool_, gcfg);
    registry = &group->metrics();
  }
  slo.bind_metrics(registry);
  MetricsTimeline timeline(registry, opts.metrics_interval_s);

  const auto waves = opts.open_loop
                         ? wave_ranges(log)
                         : std::vector<std::pair<std::size_t, std::size_t>>{
                               {0, log.records.size()}};
  const double base = log.records.front().submit_s;

  std::vector<double> latencies;
  latencies.reserve(log.records.size());
  double worst_latency = -1;  // replay-clock latency of r.slowest's request
  double clock = 0;
  std::size_t batch_completed = 0;
  std::size_t batch_degraded = 0;
  std::size_t batch_missed = 0;

  for (const auto& [wb, we] : waves) {
    // Scheduled arrival of this wave on the replay clock: the recorded gap
    // from the log's first wave, compressed by the speed factor. A wave
    // whose turn has not come waits for it; a late wave starts immediately.
    const double target =
        opts.open_loop ? (log.records[wb].submit_s - base) / opts.speed : 0;
    const double wave_begin = std::max(clock, target);

    for (std::size_t i = wb; i < we; ++i) {
      const WorkloadRecord& rec = log.records[i];
      const CsrMatrix* a = resolve(rec.a);
      const CsrMatrix* b = rec.b == rec.a ? nullptr : resolve(rec.b);
      SpgemmRequest req;
      req.a = a;
      req.b = b == a ? nullptr : b;
      req.label = rec.label;
      req.deadline_s = rec.deadline_s;
      req.options.threshold_a = static_cast<offset_t>(rec.pin_ta);
      req.options.threshold_b = static_cast<offset_t>(rec.pin_tb);
      if (svc) {
        svc->submit(std::move(req));
      } else {
        group->submit(std::move(req));
      }
    }

    std::vector<RunResult> results;
    std::vector<RequestReport> requests;
    double wave_makespan = 0;
    CritPathReport crit;  // empty for a group: no per-request breakdowns
    if (svc) {
      BatchResult br = svc->drain();
      results = std::move(br.results);
      requests = std::move(br.requests);
      wave_makespan = br.batch.makespan_s;
      batch_completed += br.batch.completed;
      batch_degraded += br.batch.degraded;
      batch_missed += br.batch.deadline_missed;
      crit = std::move(br.batch.critpath);
    } else {
      GroupResult gr = group->drain();
      results = std::move(gr.results);
      requests = std::move(gr.requests);
      wave_makespan = gr.group.makespan_s;
      batch_completed += gr.group.completed;
      batch_degraded += gr.group.degraded;
      batch_missed += gr.group.deadline_missed;
    }

    const std::size_t wave_size = we - wb;
    if (requests.size() < wave_size) r.lost += wave_size - requests.size();
    for (std::size_t i = 0; i < requests.size() && i < wave_size; ++i) {
      const WorkloadRecord& rec = log.records[wb + i];
      const RequestReport& rr = requests[i];
      r.requests++;
      if (rr.status.ok()) r.completed++;
      if (rr.degraded_to_cpu) r.degraded++;
      if (rr.deadline_missed) r.deadline_missed++;
      if (rr.deadline_missed != rec.deadline_missed) r.outcome_divergence++;
      latencies.push_back((wave_begin - target) + rr.latency_s);
      if (latencies.back() > worst_latency) {
        if (const RequestCostBreakdown* why =
                crit.find_request(rr.request_id)) {
          worst_latency = latencies.back();
          r.slowest = why->explain();
        }
      }

      const CsrMatrix& c = results[i].c;
      checksum_mix(r.output_digest, matrix_checksum(c));
      if (opts.verify_outputs && rr.status.ok()) {
        const CsrMatrix* a = resolve(rec.a);
        const CsrMatrix* b = rec.b == rec.a ? a : resolve(rec.b);
        const CsrMatrix& want = reference(a, b, rr.run.threshold_a,
                                          rr.run.threshold_b);
        if (!bit_identical(want, c)) r.identity_mismatches++;
      }
    }

    clock = wave_begin + wave_makespan;
    if (opts.metrics_interval_s > 0) timeline.maybe_snapshot(clock);
  }
  r.makespan_s = clock;
  r.p50_latency_s = percentile(latencies, 0.50);
  r.p95_latency_s = percentile(latencies, 0.95);
  r.p99_latency_s = percentile(latencies, 0.99);

  if (tuned) {
    if (svc) {
      r.promotions = svc->tuner().promotions();
    } else {
      for (std::size_t s = 0; s < group->shards(); ++s) {
        if (group->alive(s)) {
          r.promotions += group->shard_service(s)->tuner().promotions();
        }
      }
    }
  }

  // ---- Reconciliation: the SLO monitor saw exactly the requests the batch
  // reports account for, every objective's good/bad splits the observation
  // count, the deadline-hit objectives agree with the reports' missed
  // totals, and the registry's slo.* counters mirror the monitor.
  r.slo_reconciled = slo.observations() ==
                     static_cast<std::int64_t>(batch_completed + batch_missed);
  r.slo_reconciled =
      r.slo_reconciled &&
      slo.observations() == static_cast<std::int64_t>(r.requests);
  for (std::size_t i = 0; i < slo.objectives(); ++i) {
    if (slo.good(i) + slo.bad(i) != slo.observations()) {
      r.slo_reconciled = false;
    }
    if (slo.objective(i).latency_threshold_s == 0 &&
        slo.bad(i) != static_cast<std::int64_t>(batch_missed)) {
      r.slo_reconciled = false;
    }
    const std::string base_name = "slo." + slo.objective(i).name;
    if (slo.observations() > 0 &&
        (registry->counter(base_name + ".good").value() != slo.good(i) ||
         registry->counter(base_name + ".bad").value() != slo.bad(i))) {
      r.slo_reconciled = false;
    }
  }
  (void)batch_degraded;
  r.slo_json = slo.to_json();

  if (opts.metrics_interval_s > 0) {
    timeline.snapshot(clock);  // end-state sample
    r.timeline_json = timeline.to_json();
  }
  return r;
}

ReplayReport ReplayHarness::replay(const WorkloadLog& log,
                                   const ReplayOptions& opts) {
  if (log.records.empty()) {
    throw InvalidArgumentError("cannot replay an empty workload log");
  }
  if (opts.speed <= 0) {
    throw InvalidArgumentError("replay speed must be positive");
  }

  ReplayReport rep;
  rep.records = log.records.size();
  rep.waves = opts.open_loop ? wave_ranges(log).size() : 1;
  rep.open_loop = opts.open_loop;
  rep.speed = opts.speed;
  rep.shards = opts.shards;
  rep.untuned = run_pass(log, opts, /*tuned=*/false);
  rep.tuned = run_pass(log, opts, /*tuned=*/true);

  const auto quotient = [](double a, double b) { return b > 0 ? a / b : 0; };
  rep.makespan_speedup =
      quotient(rep.untuned.makespan_s, rep.tuned.makespan_s);
  rep.p50_speedup = quotient(rep.untuned.p50_latency_s, rep.tuned.p50_latency_s);
  rep.p95_speedup = quotient(rep.untuned.p95_latency_s, rep.tuned.p95_latency_s);
  rep.p99_speedup = quotient(rep.untuned.p99_latency_s, rep.tuned.p99_latency_s);
  return rep;
}

}  // namespace hh
