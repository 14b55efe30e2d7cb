#include "shard/sharded_service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace hh {

ShardedSpgemmService::ShardedSpgemmService(const HeteroPlatform& platform,
                                           ThreadPool& pool, Config config)
    : platform_(platform),
      pool_(pool),
      config_(std::move(config)),
      ring_(config_.shards, config_.virtual_nodes, config_.seed),
      injector_([&] {
        FaultPlan plan;
        plan.seed = config_.seed;
        plan.shard = config_.shard_faults;
        return plan;
      }()) {
  HH_CHECK_MSG(config_.shards > 0, "shard group needs at least one shard");
  HH_CHECK_MSG(config_.round_quantum > 0,
               "shard group round quantum must be positive");
  HH_CHECK_MSG(config_.restart_after_rounds > 0,
               "restart_after_rounds must be positive");
  HH_CHECK_MSG(config_.health.half_open_probes > 0,
               "half_open_probes must be positive");
  shards_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_[s].service = std::make_unique<SpgemmService>(platform_, pool_,
                                                         shard_config(s));
  }
}

SpgemmService::Config ShardedSpgemmService::shard_config(
    std::size_t shard) const {
  SpgemmService::Config cfg = config_.shard;
  // Three independent derived seeds per shard, a pure function of
  // (group seed, shard index): the same shard always rebuilds with the same
  // streams, which is what keeps a restart replay-identical.
  std::uint64_t st = config_.seed + 0x9e3779b97f4a7c15ULL * (shard + 1);
  cfg.fault_plan.seed ^= splitmix64(st);
  cfg.tune.seed ^= splitmix64(st);
  cfg.recovery.jitter_seed ^= splitmix64(st);
  // The group owns admission (deferral + group_capacity shedding) and
  // observability (inner drains run on round-local clocks that would
  // interleave meaninglessly in one recorder; the group re-feeds trace,
  // flight recorder and SLO monitor on the group clock instead).
  cfg.admission_capacity = 0;
  cfg.trace = nullptr;
  cfg.recorder = nullptr;
  cfg.slo = nullptr;
  return cfg;
}

const MatrixSignature& ShardedSpgemmService::signature_of(const CsrMatrix* m) {
  auto it = signatures_.find(m);
  if (it == signatures_.end()) {
    it = signatures_.emplace(m, matrix_signature(*m)).first;
  }
  return it->second;
}

std::uint64_t ShardedSpgemmService::request_hash(
    const SpgemmRequest& request) {
  const CsrMatrix* pb = request.b != nullptr ? request.b : request.a;
  const PlanKey key{signature_of(request.a), signature_of(pb)};
  std::uint64_t st = static_cast<std::uint64_t>(PlanKeyHash{}(key));
  return splitmix64(st);
}

std::size_t ShardedSpgemmService::submit(SpgemmRequest request) {
  validate_spgemm_request(request);
  if (config_.group_capacity > 0 &&
      queue_.size() >= config_.group_capacity) {
    metrics_.counter("shard.shed").inc();
    std::ostringstream os;
    os << "shard group saturated (" << queue_.size() << "/"
       << config_.group_capacity << " pending), request shed";
    throw AdmissionError(os.str());
  }
  queue_hashes_.push_back(request_hash(request));
  queue_.push_back(std::move(request));
  return next_id_++;
}

BreakerState ShardedSpgemmService::breaker_state(std::size_t shard) const {
  return shards_[shard].breaker;
}

void ShardedSpgemmService::open_breaker(Shard& sh, double now_s) {
  sh.breaker = BreakerState::kOpen;
  sh.open_rounds_left = config_.health.open_rounds;
  sh.report.breaker_opens++;
  metrics_.counter("shard.breaker_opens").inc();
  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->instant(TraceCategory::kShard, "breaker-open", now_s);
  }
}

void ShardedSpgemmService::kill_shard(std::size_t shard, double now_s) {
  Shard& sh = shards_[shard];
  sh.service.reset();  // device state, residency, in-memory caches: gone
  sh.alive = false;
  sh.breaker = BreakerState::kOpen;
  sh.open_rounds_left = 0;
  sh.restart_countdown = config_.restart_after_rounds;
  sh.consecutive_failures = 0;
  sh.deadline_misses = 0;
  sh.quarantine_cursor = 0;  // the next incarnation's log starts empty
  sh.report.kills++;
  metrics_.counter("shard.kills").inc();
  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->instant(TraceCategory::kShard, "shard-kill", now_s);
  }
}

void ShardedSpgemmService::restart_shard(std::size_t shard, double now_s) {
  Shard& sh = shards_[shard];
  sh.service =
      std::make_unique<SpgemmService>(platform_, pool_, shard_config(shard));
  sh.alive = true;
  // A restarted shard has no track record: it re-enters through the
  // half-open probe path rather than taking a full quantum on faith.
  sh.breaker = BreakerState::kHalfOpen;
  sh.restart_countdown = 0;
  sh.consecutive_failures = 0;
  sh.deadline_misses = 0;
  sh.report.restarts++;
  metrics_.counter("shard.restarts").inc();
  const bool tracing = config_.trace != nullptr && config_.trace->enabled();
  if (tracing) {
    config_.trace->instant(TraceCategory::kShard, "shard-restart", now_s);
  }
  if (!sh.has_snapshot) return;
  if (!sh.snapshot.valid()) {
    sh.report.snapshot_rejected = true;
    metrics_.counter("shard.snapshots_rejected").inc();
    if (tracing) {
      config_.trace->instant(TraceCategory::kShard, "shard-rehydrate-rejected",
                             now_s);
    }
    return;  // cold start: corrupt state is worse than no state
  }
  std::vector<PlanKey> quarantined;
  for (const QuarantineEntry& q : sh.ledger) {
    if (q.expires_round >= round_) quarantined.push_back(q.key);
  }
  restore_shard_snapshot(sh.snapshot, quarantined, *sh.service);
  sh.report.rehydrated = true;
  metrics_.counter("shard.rehydrations").inc();
  if (tracing) {
    config_.trace->instant(TraceCategory::kShard, "shard-rehydrate", now_s);
  }
}

void ShardedSpgemmService::harvest_quarantines(std::size_t shard) {
  Shard& sh = shards_[shard];
  const std::vector<PlanKey>& log =
      sh.service->plan_cache().quarantine_log();
  for (; sh.quarantine_cursor < log.size(); ++sh.quarantine_cursor) {
    sh.ledger.push_back(
        {log[sh.quarantine_cursor], round_ + config_.quarantine_ttl_rounds});
  }
  std::erase_if(sh.ledger, [&](const QuarantineEntry& q) {
    return q.expires_round < round_;
  });
}

GroupResult ShardedSpgemmService::drain() {
  GroupResult out;
  const std::size_t n = queue_.size();
  const std::size_t first_id = next_id_ - n;
  std::vector<SpgemmRequest> reqs = std::move(queue_);
  std::vector<std::uint64_t> hashes = std::move(queue_hashes_);
  queue_.clear();
  queue_hashes_.clear();
  out.results.resize(n);
  out.requests.resize(n);

  const std::size_t shard_count = shards_.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_[s].report = ShardReport{};
    shards_[s].report.shard = s;
  }

  TraceRecorder* tr = config_.trace != nullptr && config_.trace->enabled()
                          ? config_.trace
                          : nullptr;
  const HealthPolicy& hp = config_.health;

  std::deque<std::size_t> work;
  for (std::size_t i = 0; i < n; ++i) work.push_back(i);

  std::vector<double> latencies;
  latencies.reserve(n);
  double group_clock = 0;
  double max_finish = 0;
  std::size_t remaining = n;
  std::size_t rounds_this_drain = 0;
  std::size_t failovers = 0;
  std::size_t deferrals = 0;

  while (remaining > 0) {
    ++round_;
    ++rounds_this_drain;
    HH_CHECK_MSG(rounds_this_drain <= 1000 + 10 * n,
                 "shard group made no progress (kill schedule starves every "
                 "round?)");
    const double round_start = group_clock;

    // ---- Round start: restart countdowns and breaker cool-downs.
    for (std::size_t s = 0; s < shard_count; ++s) {
      Shard& sh = shards_[s];
      if (!sh.alive) {
        if (--sh.restart_countdown <= 0) restart_shard(s, round_start);
      } else if (sh.breaker == BreakerState::kOpen &&
                 --sh.open_rounds_left <= 0) {
        sh.breaker = BreakerState::kHalfOpen;
        metrics_.counter("shard.breaker_half_opens").inc();
        if (tr != nullptr) {
          tr->instant(TraceCategory::kShard, "breaker-half-open", round_start);
        }
      }
    }

    // ---- Assignment: ring-route each pending request to the first
    // routable shard clockwise from its hash, bounded by the round quantum
    // (half-open: the probe budget). Whatever does not fit is deferred to
    // the next round — backpressure, never loss.
    std::vector<bool> eligible(shard_count);
    std::vector<std::size_t> capacity(shard_count, 0);
    bool any_eligible = false;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const Shard& sh = shards_[s];
      eligible[s] = sh.alive && sh.breaker != BreakerState::kOpen;
      any_eligible = any_eligible || eligible[s];
      if (!eligible[s]) continue;
      capacity[s] = sh.breaker == BreakerState::kHalfOpen
                        ? std::min(config_.round_quantum,
                                   hp.half_open_probes)
                        : config_.round_quantum;
    }
    std::vector<std::vector<std::size_t>> submitted(shard_count);
    std::deque<std::size_t> leftover;
    while (!work.empty()) {
      const std::size_t idx = work.front();
      work.pop_front();
      const std::size_t target =
          any_eligible ? ring_.route(hashes[idx], eligible) : kNoShard;
      if (target != kNoShard && capacity[target] > 0) {
        shards_[target].service->submit(reqs[idx]);
        submitted[target].push_back(idx);
        --capacity[target];
        shards_[target].report.assigned++;
      } else {
        leftover.push_back(idx);
        ++deferrals;
        metrics_.counter("shard.deferrals").inc();
      }
    }
    work = std::move(leftover);

    // ---- Kill decisions: one kShard op per shard slot per round, slot
    // order, consumed whether or not the slot is alive — so trigger_ops
    // address (round, shard) exactly. The decision lands after this round's
    // submissions and before its drain: a killed shard has genuinely
    // in-flight requests, and they fail over.
    for (std::size_t s = 0; s < shard_count; ++s) {
      const FaultDecision d = injector_.next(FaultSite::kShard);
      if (!d.fault || !shards_[s].alive) continue;
      const std::vector<std::size_t>& items = submitted[s];
      for (auto it = items.rbegin(); it != items.rend(); ++it) {
        work.push_front(*it);  // re-routes to the ring successor next round
      }
      failovers += items.size();
      shards_[s].report.failovers_out += items.size();
      metrics_.counter("shard.failovers")
          .inc(static_cast<std::int64_t>(items.size()));
      if (tr != nullptr && !items.empty()) {
        tr->instant(TraceCategory::kShard, "shard-failover", round_start);
      }
      kill_shard(s, round_start);
      submitted[s].clear();
    }

    // ---- Drain the survivors (shard order — deterministic), map results
    // back to group order, and feed the health monitor.
    double round_makespan = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      Shard& sh = shards_[s];
      if (!sh.alive || submitted[s].empty()) continue;
      BatchResult br = sh.service->drain();
      round_makespan = std::max(round_makespan, br.batch.makespan_s);
      std::size_t round_misses = 0;
      for (std::size_t i = 0; i < submitted[s].size(); ++i) {
        const std::size_t gidx = submitted[s][i];
        RequestReport rr = std::move(br.requests[i]);
        for (StageSpan& span : rr.spans) {
          span.start_s += round_start;
          span.end_s += round_start;
        }
        rr.request_id = first_id + gidx;
        rr.submit_s = 0;  // group drain start
        rr.start_s += round_start;
        rr.finish_s += round_start;
        rr.queue_wait_s = rr.start_s;  // includes deferred/failed-over rounds
        rr.latency_s = rr.finish_s;
        rr.run.total_s = rr.latency_s;
        rr.flame.clear();  // rendered against a round-local window; stale

        // Re-record the shard-local spans (already mapped to the group
        // clock) under the shard's own trace track, so one Perfetto export
        // shows every shard's resource occupancy side by side without
        // false overlaps on shared CPU/GPU/H2D/D2H rows.
        if (tr != nullptr) {
          tr->set_track(static_cast<std::uint32_t>(s) + 1);
          tr->begin_request(rr.request_id);
          for (const StageSpan& span : rr.spans) {
            const bool transfer = span.resource == Resource::kH2D ||
                                  span.resource == Resource::kD2H;
            tr->span(transfer ? TraceCategory::kTransfer
                              : TraceCategory::kCompute,
                     span.stage, span.resource, span.start_s, span.end_s,
                     span.start_s);
          }
          tr->end_request();
          tr->set_track(0);
        }

        // Group-level flight recorder + SLO feed, on the group clock, with
        // the executing shard stamped on the record.
        if (config_.recorder != nullptr) {
          const SpgemmRequest& greq = reqs[gidx];
          const CsrMatrix* pb = greq.b != nullptr ? greq.b : greq.a;
          const RunReport& rep = rr.run;
          WorkloadRecord w;
          w.id = rr.request_id;
          w.shard = static_cast<std::int64_t>(s);
          w.label = rr.label;
          w.a = signature_of(greq.a);
          w.b = signature_of(pb);
          w.submit_s = config_.recorder->clock() + rr.submit_s;
          w.deadline_s = rr.deadline_s;
          w.pin_ta = greq.options.threshold_a;
          w.pin_tb = greq.options.threshold_b;
          w.ta = rep.threshold_a;
          w.tb = rep.threshold_b;
          w.status = hh::to_string(rr.status.code);
          w.cache_hit = rr.plan_cache_hit;
          w.degraded = rr.degraded_to_cpu;
          w.deadline_missed = rr.deadline_missed;
          w.latency_s = rr.latency_s;
          w.queue_wait_s = rr.queue_wait_s;
          w.phase1_s = rep.phase1_s;
          w.phase2_s = rep.phase2_s;
          w.phase3_s = rep.phase3_s;
          w.phase4_s = rep.phase4_s;
          w.tx_in_s = rep.transfer_in_s;
          w.tx_out_s = rep.transfer_out_s;
          w.output_nnz = rep.output_nnz;
          w.faults = rr.faults.total_faults();
          w.retries = rr.faults.retries;
          config_.recorder->append(std::move(w));
        }
        if (config_.slo != nullptr) {
          config_.slo->observe(rr.latency_s, rr.status.ok(),
                               rr.deadline_missed, rr.finish_s);
        }

        if (rr.deadline_missed) {
          sh.consecutive_failures++;
          sh.deadline_misses++;
          sh.report.deadline_missed++;
          ++round_misses;
        } else {
          sh.consecutive_failures = 0;
          sh.report.completed++;
        }
        if (rr.degraded_to_cpu) sh.report.degraded++;
        latencies.push_back(rr.latency_s);
        max_finish = std::max(max_finish, rr.finish_s);
        out.requests[gidx] = std::move(rr);
        out.results[gidx] = std::move(br.results[i]);
        --remaining;
      }
      sh.report.faults.accumulate(br.batch.faults);
      sh.report.wave.accumulate(br.batch.wave);
      sh.report.critpath.accumulate(br.batch.critpath.summary());

      // Breaker transitions on this round's evidence.
      if (sh.breaker == BreakerState::kHalfOpen) {
        if (round_misses > 0) {
          open_breaker(sh, round_start);  // probe failed: back to open
        } else {
          sh.breaker = BreakerState::kClosed;
          sh.consecutive_failures = 0;
          sh.deadline_misses = 0;
          metrics_.counter("shard.breaker_closes").inc();
          if (tr != nullptr) {
            tr->instant(TraceCategory::kShard, "breaker-close", round_start);
          }
        }
      } else if (sh.breaker == BreakerState::kClosed &&
                 (sh.consecutive_failures >= hp.consecutive_failures ||
                  sh.deadline_misses >= hp.deadline_misses)) {
        open_breaker(sh, round_start);
      }

      // Ledger before snapshot: a key quarantined this round must be in the
      // ledger before any snapshot that could outlive this incarnation.
      harvest_quarantines(s);
      sh.snapshot = take_shard_snapshot(s, round_, *sh.service);
      sh.has_snapshot = true;
    }

    group_clock += round_makespan;
  }

  // ---- Merged group report.
  GroupBatchReport& g = out.group;
  g.shards = shard_count;
  g.requests = n;
  for (const RequestReport& rr : out.requests) {
    if (rr.status.ok()) g.completed++;
    if (rr.degraded_to_cpu) g.degraded++;
    if (rr.deadline_missed) g.deadline_missed++;
    g.faults.accumulate(rr.faults);
  }
  const std::int64_t shed_total = metrics_.counter("shard.shed").value();
  g.shed = static_cast<std::size_t>(shed_total - shed_at_last_drain_);
  shed_at_last_drain_ = shed_total;
  g.failovers = failovers;
  g.deferrals = deferrals;
  g.rounds = rounds_this_drain;
  g.makespan_s = max_finish;
  g.p50_latency_s = percentile(latencies, 0.50);
  g.p95_latency_s = percentile(latencies, 0.95);
  g.p99_latency_s = percentile(latencies, 0.99);
  g.backoff_jitter = config_.shard.recovery.decorrelated_jitter;
  g.wave_enabled = config_.shard.wave.enabled;
  g.shard_reports.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& sh = shards_[s];
    sh.report.breaker = sh.alive ? to_string(sh.breaker) : "dead";
    if (sh.alive) sh.report.plan_cache = sh.service->plan_cache().stats();
    g.kills += sh.report.kills;
    g.restarts += sh.report.restarts;
    g.wave.accumulate(sh.report.wave);
    g.critpath.accumulate(sh.report.critpath);
    g.shard_reports.push_back(sh.report);
  }
  metrics_.gauge("shard.rounds").set(static_cast<double>(round_));
  metrics_.gauge("shard.makespan_s").set(g.makespan_s);
  if (config_.recorder != nullptr) {
    config_.recorder->advance_clock(g.makespan_s);
  }
  return out;
}

GroupTuneReport ShardedSpgemmService::tune_report() const {
  GroupTuneReport gr;
  gr.shards.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    if (sh.alive) {
      gr.shards.push_back(sh.service->tune_report());
    } else {
      TuneReport dead;  // deterministic placeholder for a dead shard
      dead.enabled = config_.shard.tune.enabled;
      gr.shards.push_back(std::move(dead));
    }
  }
  return gr;
}

}  // namespace hh
