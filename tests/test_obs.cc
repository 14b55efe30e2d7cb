// Observability tests: flight-recorder log round-trips and tamper evidence,
// ring rotation, recorder clock/drain accounting, service and shard-group
// integration (records and SLO accounting reconcile with the batch
// reports, attaching the recorder changes nothing behaviourally), the SLO
// monitor's burn-rate/alert math, metrics time series, and the replay
// harness (deterministic reports, bit-identical outputs, open vs closed
// loop, sharded replay).
#include "obs/record.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "runtime/service.hpp"
#include "shard/sharded_service.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

WorkloadRecord sample_record(std::size_t id) {
  WorkloadRecord r;
  r.id = id;
  r.label = "req-" + std::to_string(id);
  r.a = {100 + static_cast<index_t>(id), 100, 500, 2100, 0x1234 + id};
  r.b = r.a;
  r.submit_s = 0.125 * static_cast<double>(id);
  r.deadline_s = 0.5;
  r.ta = 32;
  r.tb = 16;
  r.status = "ok";
  r.latency_s = 0.0625 + 1e-9 * static_cast<double>(id);
  r.phase2_s = 0.011;
  r.tx_in_s = 0.003;
  r.output_nnz = 4321;
  return r;
}

// ------------------------------------------------------------ log format

TEST(WorkloadLog, RoundTripsThroughJsonl) {
  WorkloadRecorder rec;
  rec.append(sample_record(0));
  WorkloadRecord odd = sample_record(1);
  odd.label = "quote\" slash\\ tab\t end";  // escaping must round-trip
  odd.shard = 2;
  odd.status = "deadline_exceeded";
  odd.deadline_missed = true;
  odd.cache_hit = true;
  odd.faults = 3;
  rec.append(odd);

  const WorkloadLog log = rec.log();
  const std::string text = log.to_jsonl();
  const WorkloadLog back = parse_workload_log(text);

  EXPECT_EQ(back.version, kWorkloadLogVersion);
  EXPECT_EQ(back.total_appended, 2u);
  EXPECT_EQ(back.rotations, 0u);
  ASSERT_EQ(back.records.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const WorkloadRecord& w = log.records[i];
    const WorkloadRecord& p = back.records[i];
    EXPECT_EQ(p.id, w.id);
    EXPECT_EQ(p.drain, w.drain);
    EXPECT_EQ(p.shard, w.shard);
    EXPECT_EQ(p.label, w.label);
    EXPECT_EQ(p.a, w.a);
    EXPECT_EQ(p.b, w.b);
    EXPECT_EQ(p.submit_s, w.submit_s);  // %.17g: bit-exact round-trip
    EXPECT_EQ(p.latency_s, w.latency_s);
    EXPECT_EQ(p.status, w.status);
    EXPECT_EQ(p.cache_hit, w.cache_hit);
    EXPECT_EQ(p.deadline_missed, w.deadline_missed);
    EXPECT_EQ(p.output_nnz, w.output_nnz);
    EXPECT_EQ(p.faults, w.faults);
    EXPECT_EQ(p.checksum, w.checksum);
  }
  // Re-serialising the parsed log reproduces the original bytes.
  EXPECT_EQ(back.to_jsonl(), text);
}

TEST(WorkloadLog, TamperingIsDetected) {
  WorkloadRecorder rec;
  for (std::size_t i = 0; i < 3; ++i) rec.append(sample_record(i));
  const std::string text = rec.log().to_jsonl();
  EXPECT_NO_THROW(parse_workload_log(text));

  // Editing a payload field breaks that record's checksum.
  std::string edited = text;
  const std::size_t pos = edited.find("\"output_nnz\":4321");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 17, "\"output_nnz\":4322");
  EXPECT_THROW(parse_workload_log(edited), ParseError);

  // Dropping a middle line breaks the chain of everything after it.
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', start)) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);  // header + 3 records
  std::string dropped = lines[0] + "\n" + lines[1] + "\n" + lines[3] + "\n";
  EXPECT_THROW(parse_workload_log(dropped), ParseError);

  // Reordering two records breaks the chain even though each line is
  // individually well-formed.
  std::string swapped =
      lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n" + lines[3] + "\n";
  EXPECT_THROW(parse_workload_log(swapped), ParseError);

  // Truncation and garbage are parse errors, not crashes.
  EXPECT_THROW(parse_workload_log(""), ParseError);
  EXPECT_THROW(parse_workload_log("not json\n"), ParseError);
  EXPECT_THROW(parse_workload_log(lines[1] + "\n"), ParseError);  // no header
}

TEST(WorkloadRecorder, RingRotationKeepsChainVerifiable) {
  WorkloadRecorder::Config cfg;
  cfg.max_records = 4;
  WorkloadRecorder rec(cfg);
  for (std::size_t i = 0; i < 10; ++i) rec.append(sample_record(i));

  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_appended(), 10u);
  EXPECT_EQ(rec.rotations(), 6u);
  EXPECT_EQ(rec.records().front().id, 6u);  // oldest retained

  // The retained suffix still verifies: the chain seed moved up to the
  // checksum of the last dropped record.
  const WorkloadLog log = rec.log();
  EXPECT_EQ(log.rotations, 6u);
  const WorkloadLog back = parse_workload_log(log.to_jsonl());
  ASSERT_EQ(back.records.size(), 4u);
  EXPECT_EQ(back.records.front().id, 6u);
  EXPECT_EQ(back.records.back().id, 9u);
}

TEST(WorkloadRecorder, FirstRotationLandsExactlyOnTheHeaderSeed) {
  // Regression guard for the rotation re-seed boundary: the very first
  // rotation drops the record chained directly from the header's seed, so
  // the new seed must be that record's *checksum* (not the old seed, and
  // not the second record's checksum — either off-by-one would break the
  // retained suffix).
  WorkloadRecorder::Config cfg;
  cfg.max_records = 3;
  WorkloadRecorder rec(cfg);
  for (std::size_t i = 0; i < 4; ++i) rec.append(sample_record(i));
  EXPECT_EQ(rec.rotations(), 1u);
  EXPECT_EQ(rec.records().front().id, 1u);
  const WorkloadLog back = parse_workload_log(rec.log().to_jsonl());
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records.front().id, 1u);
}

TEST(WorkloadRecorder, SingleSlotRingRotatesOnEveryAppend) {
  // max_records == 1 is the extreme boundary: every append past the first
  // is a rotation, and the retained single record must always verify
  // against the freshly re-seeded chain.
  WorkloadRecorder::Config cfg;
  cfg.max_records = 1;
  WorkloadRecorder rec(cfg);
  for (std::size_t i = 0; i < 7; ++i) {
    rec.append(sample_record(i));
    ASSERT_EQ(rec.size(), 1u);
    const WorkloadLog back = parse_workload_log(rec.log().to_jsonl());
    ASSERT_EQ(back.records.size(), 1u);
    EXPECT_EQ(back.records.front().id, i);
  }
  EXPECT_EQ(rec.total_appended(), 7u);
  EXPECT_EQ(rec.rotations(), 6u);  // total appended minus the one retained
}

TEST(WorkloadRecorder, ClockAccumulatesAcrossDrains) {
  WorkloadRecorder rec;
  EXPECT_EQ(rec.drain(), 0u);
  EXPECT_EQ(rec.clock(), 0.0);
  rec.append(sample_record(0));
  rec.advance_clock(1.5);
  rec.append(sample_record(1));
  rec.advance_clock(0.25);
  EXPECT_EQ(rec.drain(), 2u);
  EXPECT_DOUBLE_EQ(rec.clock(), 1.75);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.records()[0].drain, 0u);
  EXPECT_EQ(rec.records()[1].drain, 1u);
}

// ------------------------------------------------------------ SLO monitor

TEST(SloMonitor, RejectsBadObjectives) {
  EXPECT_THROW(SloMonitor({{"bad name", 0.9, 8, 0, 1.0}}),
               InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"", 0.9, 8, 0, 1.0}}), InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"t0", 0.0, 8, 0, 1.0}}), InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"t1", 1.0, 8, 0, 1.0}}), InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"w0", 0.9, 0, 0, 1.0}}), InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"neg", 0.9, 8, -1.0, 1.0}}),
               InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"b0", 0.9, 8, 0, 0.0}}), InvalidArgumentError);
  EXPECT_THROW(SloMonitor({{"dup", 0.9, 8, 0, 1.0}, {"dup", 0.9, 8, 0, 1.0}}),
               InvalidArgumentError);
  EXPECT_NO_THROW(SloMonitor({{"ok", 0.9, 8, 0, 1.0}}));
}

TEST(SloMonitor, BurnRateAndAlerts) {
  // Deadline-hit objective: target 0.5 over a window of 4 → the error
  // budget is 0.5, so burn = 2 × window_bad_fraction.
  SloMonitor slo({{"avail", 0.5, 4, 0, 1.0}});
  MetricsRegistry reg;
  slo.bind_metrics(&reg);

  slo.observe(0.1, true, false, 0.0);  // good
  EXPECT_DOUBLE_EQ(slo.window_bad_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate(0), 0.0);
  EXPECT_FALSE(slo.alerting(0));

  slo.observe(0.1, true, true, 1.0);  // deadline miss = bad
  EXPECT_DOUBLE_EQ(slo.window_bad_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(slo.burn_rate(0), 1.0);  // exactly at budget pace

  slo.observe(0.1, false, false, 2.0);  // failed = bad → burn 1.33… > 1
  EXPECT_TRUE(slo.alerting(0));
  EXPECT_EQ(slo.alerts(0), 1);

  // Four straight goods slide the bads out of the window and clear.
  for (int i = 0; i < 4; ++i) slo.observe(0.1, true, false, 3.0 + i);
  EXPECT_FALSE(slo.alerting(0));
  EXPECT_EQ(slo.alerts(0), 1);  // lifetime count survives clearing
  EXPECT_DOUBLE_EQ(slo.budget_remaining(0), 1.0);

  EXPECT_EQ(slo.observations(), 7);
  EXPECT_EQ(slo.good(0) + slo.bad(0), slo.observations());
  EXPECT_EQ(reg.counter("slo.avail.good").value(), slo.good(0));
  EXPECT_EQ(reg.counter("slo.avail.bad").value(), slo.bad(0));
  EXPECT_EQ(reg.counter("slo.avail.alerts").value(), slo.alerts(0));
  EXPECT_DOUBLE_EQ(reg.gauge("slo.avail.burn_rate").value(),
                   slo.burn_rate(0));
  EXPECT_FALSE(slo.to_json().empty());
  EXPECT_FALSE(slo.to_string().empty());
}

TEST(SloMonitor, LatencyObjectiveJudgesThreshold) {
  SloMonitor slo({{"lat", 0.9, 8, 0.05, 1.0}});
  slo.observe(0.01, true, false, 0.0);  // under threshold → good
  slo.observe(0.10, true, false, 1.0);  // over threshold → bad
  slo.observe(0.01, true, true, 2.0);   // fast but missed: latency objective
                                        // only cares about the threshold
  EXPECT_EQ(slo.good(0), 2);
  EXPECT_EQ(slo.bad(0), 1);
}

// --------------------------------------------------------- metrics series

TEST(MetricsTimeline, DeltasRatesAndBackfill) {
  MetricsRegistry reg;
  Counter& c = reg.counter("reqs");
  c.inc();
  MetricsTimeline tl(&reg, 1.0);
  tl.snapshot(0.0);  // reqs = 1
  c.inc(2);
  EXPECT_FALSE(tl.maybe_snapshot(0.5));  // interval not elapsed
  EXPECT_TRUE(tl.maybe_snapshot(2.0));   // reqs = 3
  reg.gauge("late").set(7.0);            // discovered after sample 1
  c.inc();
  tl.snapshot(4.0);  // reqs = 4, late = 7
  EXPECT_EQ(tl.samples(), 3u);

  const std::string json = tl.to_json();
  EXPECT_NE(json.find("\"samples\":3"), std::string::npos);
  EXPECT_NE(json.find("\"t_s\":[0,2,4]"), std::string::npos);
  // reqs: values 1,3,4 → deltas 1,2,1 → rates 0,1,0.5.
  EXPECT_NE(json.find("\"values\":[1,3,4]"), std::string::npos);
  EXPECT_NE(json.find("\"deltas\":[1,2,1]"), std::string::npos);
  EXPECT_NE(json.find("\"rates\":[0,1,0.5]"), std::string::npos);
  // The late gauge is zero-backfilled to stay aligned with t_s.
  EXPECT_NE(json.find("\"values\":[0,0,7]"), std::string::npos);
}

// ------------------------------------------------------ service integration

class ObsServiceTest : public testing::Test {
 protected:
  ObsServiceTest()
      : wiki_(make_dataset(dataset_spec("wiki-Vote"), 0.05)),
        enron_(make_dataset(dataset_spec("email-Enron"), 0.03)),
        pool_(2) {}

  const CsrMatrix& mat(std::size_t i) const {
    return i % 2 == 0 ? wiki_ : enron_;
  }

  CsrMatrix wiki_;
  CsrMatrix enron_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(ObsServiceTest, ServiceFeedsRecorderAndSlo) {
  WorkloadRecorder rec;
  SloMonitor slo({{"deadline-hit", 0.99, 64, 0, 1.0}});
  SpgemmService::Config cfg;
  cfg.recorder = &rec;
  cfg.slo = &slo;
  SpgemmService service(plat_, pool_, cfg);
  slo.bind_metrics(&service.metrics());

  constexpr std::size_t kWave = 4;
  for (std::size_t i = 0; i < kWave; ++i) {
    service.submit({&mat(i), nullptr, {}, "w0-" + std::to_string(i)});
  }
  const BatchResult b0 = service.drain();
  for (std::size_t i = 0; i < kWave; ++i) {
    service.submit({&mat(i), nullptr, {}, "w1-" + std::to_string(i)});
  }
  const BatchResult b1 = service.drain();

  // One record per request, stamped with the drain index and a submit time
  // on the recorder's accumulated clock.
  ASSERT_EQ(rec.size(), 2 * kWave);
  EXPECT_EQ(rec.drain(), 2u);
  EXPECT_DOUBLE_EQ(rec.clock(), b0.batch.makespan_s + b1.batch.makespan_s);
  for (std::size_t i = 0; i < kWave; ++i) {
    const WorkloadRecord& w0 = rec.records()[i];
    const WorkloadRecord& w1 = rec.records()[kWave + i];
    EXPECT_EQ(w0.drain, 0u);
    EXPECT_EQ(w1.drain, 1u);
    EXPECT_EQ(w0.shard, -1);
    EXPECT_DOUBLE_EQ(w0.submit_s, 0.0);
    EXPECT_DOUBLE_EQ(w1.submit_s, b0.batch.makespan_s);
    EXPECT_EQ(w0.label, "w0-" + std::to_string(i));
    EXPECT_EQ(w0.status, "ok");
    EXPECT_EQ(w0.a, matrix_signature(mat(i)));
    EXPECT_EQ(w0.b, w0.a);  // self product records b == a
    EXPECT_DOUBLE_EQ(w0.latency_s, b0.requests[i].latency_s);
    EXPECT_EQ(w0.ta, static_cast<std::int64_t>(b0.requests[i].run.threshold_a));
    EXPECT_EQ(w0.output_nnz,
              static_cast<std::int64_t>(b0.requests[i].run.output_nnz));
    // Wave 1 repeats wave 0's shapes, so the plan cache serves it.
    EXPECT_TRUE(w1.cache_hit);
  }
  // The log round-trips.
  EXPECT_NO_THROW(parse_workload_log(rec.log().to_jsonl()));

  // SLO accounting reconciles with the batch reports.
  EXPECT_EQ(slo.observations(), static_cast<std::int64_t>(2 * kWave));
  EXPECT_EQ(slo.bad(0), static_cast<std::int64_t>(b0.batch.deadline_missed +
                                                  b1.batch.deadline_missed));
  EXPECT_EQ(service.metrics().counter("slo.deadline-hit.good").value(),
            slo.good(0));
}

TEST_F(ObsServiceTest, RecorderAttachmentChangesNothing) {
  WorkloadRecorder rec;
  SloMonitor slo({{"hit", 0.9, 16, 0, 1.0}});
  SpgemmService::Config cfg;
  cfg.recorder = &rec;
  cfg.slo = &slo;
  SpgemmService observed(plat_, pool_, cfg);
  SpgemmService plain(plat_, pool_);
  for (std::size_t i = 0; i < 4; ++i) {
    observed.submit({&mat(i), nullptr, {}, ""});
    plain.submit({&mat(i), nullptr, {}, ""});
  }
  const BatchResult bo = observed.drain();
  const BatchResult bp = plain.drain();
  ASSERT_EQ(bo.results.size(), bp.results.size());
  for (std::size_t i = 0; i < bo.results.size(); ++i) {
    EXPECT_EQ(bo.results[i].c.indptr, bp.results[i].c.indptr);
    EXPECT_EQ(bo.results[i].c.indices, bp.results[i].c.indices);
    EXPECT_EQ(bo.results[i].c.values, bp.results[i].c.values);
  }
  // Everything behavioural matches. (Workspace-pool reuse counts are
  // thread-timing artifacts and excluded: they differ run to run even
  // between two identically-configured services.)
  EXPECT_EQ(bo.batch.completed, bp.batch.completed);
  EXPECT_EQ(bo.batch.deadline_missed, bp.batch.deadline_missed);
  EXPECT_DOUBLE_EQ(bo.batch.makespan_s, bp.batch.makespan_s);
  EXPECT_DOUBLE_EQ(bo.batch.p95_latency_s, bp.batch.p95_latency_s);
  EXPECT_EQ(bo.batch.plan_cache.hits, bp.batch.plan_cache.hits);
  for (std::size_t i = 0; i < bo.requests.size(); ++i) {
    EXPECT_EQ(bo.requests[i].to_json(), bp.requests[i].to_json());
  }
}

TEST_F(ObsServiceTest, ShardedGroupStampsExecutingShard) {
  WorkloadRecorder rec;
  SloMonitor slo({{"hit", 0.99, 64, 0, 1.0}});
  ShardedSpgemmService::Config gcfg;
  gcfg.shards = 2;
  gcfg.recorder = &rec;
  gcfg.slo = &slo;
  ShardedSpgemmService group(plat_, pool_, gcfg);
  slo.bind_metrics(&group.metrics());

  constexpr std::size_t kRequests = 8;
  for (std::size_t i = 0; i < kRequests; ++i) {
    group.submit({&mat(i), nullptr, {}, "g" + std::to_string(i)});
  }
  const GroupResult gr = group.drain();
  ASSERT_EQ(gr.group.completed, kRequests);
  ASSERT_EQ(rec.size(), kRequests);
  bool shard_seen[2] = {false, false};
  for (const WorkloadRecord& w : rec.records()) {
    ASSERT_GE(w.shard, 0);
    ASSERT_LT(w.shard, 2);
    shard_seen[w.shard] = true;
  }
  // Consistent hashing spreads two distinct signatures over the ring; both
  // shards served traffic in this configuration.
  EXPECT_TRUE(shard_seen[0] || shard_seen[1]);
  EXPECT_EQ(slo.observations(), static_cast<std::int64_t>(kRequests));
  EXPECT_NO_THROW(parse_workload_log(rec.log().to_jsonl()));
}

// ------------------------------------------------------------------ replay

class ReplayTest : public ObsServiceTest {
 protected:
  // Record a two-wave production run and return the log. Request i of a
  // wave is labelled `label` + i.
  WorkloadLog record_workload(const std::string& label = "r") {
    WorkloadRecorder rec;
    SpgemmService::Config cfg;
    cfg.recorder = &rec;
    SpgemmService service(plat_, pool_, cfg);
    for (std::size_t wave = 0; wave < 2; ++wave) {
      for (std::size_t i = 0; i < 4; ++i) {
        service.submit({&mat(i), nullptr, {}, label + std::to_string(i)});
      }
      service.drain();
    }
    return rec.log();
  }

  ReplayOptions base_options() {
    ReplayOptions opts;
    opts.slo = {{"deadline-hit", 0.99, 64, 0, 1.0}};
    opts.metrics_interval_s = 1e-6;
    return opts;
  }
};

TEST_F(ReplayTest, ReplayIsDeterministicAndBitIdentical) {
  // The labels hold a quote, a backslash and a tab, and are read back from
  // the log's text: the slowest request's explanation embeds its label, so
  // the report must escape it.
  const std::string label = "say \"hi\"\\\tnow";
  const WorkloadLog log =
      parse_workload_log(record_workload(label).to_jsonl());
  ASSERT_EQ(log.records.size(), 8u);

  ReplayHarness harness(plat_, pool_);
  harness.register_operand(&wiki_);
  harness.register_operand(&enron_);
  const ReplayOptions opts = base_options();
  const ReplayReport r1 = harness.replay(log, opts);
  const ReplayReport r2 = harness.replay(log, opts);

  // Same log + same options ⇒ byte-identical reports, bit-identical outputs.
  EXPECT_EQ(r1.to_json(), r2.to_json());
  EXPECT_EQ(r1.untuned.output_digest, r2.untuned.output_digest);
  EXPECT_EQ(r1.tuned.output_digest, r2.tuned.output_digest);

  EXPECT_EQ(r1.records, 8u);
  EXPECT_EQ(r1.waves, 2u);
  for (const ReplayRunReport* p : {&r1.untuned, &r1.tuned}) {
    EXPECT_EQ(p->requests, 8u);
    EXPECT_EQ(p->lost, 0u);
    EXPECT_EQ(p->identity_mismatches, 0u);
    EXPECT_EQ(p->outcome_divergence, 0u);
    EXPECT_TRUE(p->slo_reconciled);
    EXPECT_FALSE(p->slo_json.empty());
    EXPECT_FALSE(p->timeline_json.empty());
    EXPECT_GT(p->makespan_s, 0.0);
  }
  // Tuning only re-picks thresholds; both passes multiply the same
  // matrices, so the digests cover the same products either way.
  EXPECT_FALSE(r1.to_string().empty());
  const JsonValue j = parse_json(r1.to_json(), "replay report");
  ASSERT_FALSE(r1.untuned.slowest.empty());
  const std::string& slowest = j.at("untuned").at("slowest").str();
  EXPECT_EQ(slowest, r1.untuned.slowest);
  EXPECT_NE(slowest.find("(" + label), std::string::npos) << slowest;
}

TEST_F(ReplayTest, ClosedLoopIsAtLeastAsFastAsOpenLoop) {
  const WorkloadLog log = record_workload();
  ReplayHarness harness(plat_, pool_);
  harness.register_operand(&wiki_);
  harness.register_operand(&enron_);

  ReplayOptions open = base_options();
  ReplayOptions closed = base_options();
  closed.open_loop = false;
  const ReplayReport ro = harness.replay(log, open);
  const ReplayReport rc = harness.replay(log, closed);
  EXPECT_EQ(rc.waves, 1u);
  // The closed loop drops the recorded inter-wave gaps, so it can only
  // finish the same work sooner (or equal, when the gaps were zero).
  EXPECT_LE(rc.untuned.makespan_s, ro.untuned.makespan_s + 1e-12);
  // Both loops produce the same outputs — arrival shaping never changes
  // bits.
  EXPECT_EQ(rc.untuned.output_digest, ro.untuned.output_digest);

  // Speeding the open loop up compresses gaps toward the closed-loop floor.
  ReplayOptions fast = base_options();
  fast.speed = 1e9;
  const ReplayReport rf = harness.replay(log, fast);
  EXPECT_LE(rf.untuned.makespan_s, ro.untuned.makespan_s + 1e-12);
}

TEST_F(ReplayTest, ShardedReplayLosesNothing) {
  const WorkloadLog log = record_workload();
  ReplayHarness harness(plat_, pool_);
  harness.register_operand(&wiki_);
  harness.register_operand(&enron_);
  ReplayOptions opts = base_options();
  opts.shards = 2;
  const ReplayReport r = harness.replay(log, opts);
  EXPECT_EQ(r.untuned.requests, 8u);
  EXPECT_EQ(r.untuned.lost, 0u);
  EXPECT_EQ(r.untuned.identity_mismatches, 0u);
  EXPECT_TRUE(r.untuned.slo_reconciled);
  // Deterministic across runs in the sharded configuration too.
  EXPECT_EQ(r.to_json(), harness.replay(log, opts).to_json());
}

TEST_F(ReplayTest, ReplayRejectsBadInputs) {
  const WorkloadLog log = record_workload();
  ReplayHarness harness(plat_, pool_);
  // No operands registered: the log's signatures cannot be resolved.
  EXPECT_THROW(harness.replay(log, base_options()), InvalidArgumentError);

  harness.register_operand(&wiki_);
  harness.register_operand(&enron_);
  EXPECT_THROW(harness.register_operand(nullptr), InvalidArgumentError);
  WorkloadLog empty;
  EXPECT_THROW(harness.replay(empty, base_options()), InvalidArgumentError);
  ReplayOptions bad = base_options();
  bad.speed = 0;
  EXPECT_THROW(harness.replay(log, bad), InvalidArgumentError);
}

}  // namespace
}  // namespace hh
