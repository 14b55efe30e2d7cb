#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "core/hh_cpu.hpp"
#include "gen/datasets.hpp"
#include "runtime/timeline.hpp"
#include "runtime/wave.hpp"
#include "test_util.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// ---------------------------------------------------------------- timeline

TEST(ResourceTimeline, AppendsWhenNoGapFits) {
  ResourceTimeline t(Resource::kCpu);
  const StageSpan a = t.reserve("a", 0, 1.0);
  EXPECT_DOUBLE_EQ(a.start_s, 0);
  EXPECT_DOUBLE_EQ(a.end_s, 1.0);
  const StageSpan b = t.reserve("b", 0, 2.0);
  EXPECT_DOUBLE_EQ(b.start_s, 1.0);  // no idle window: appended
  EXPECT_DOUBLE_EQ(b.end_s, 3.0);
  EXPECT_DOUBLE_EQ(t.now(), 3.0);
  EXPECT_DOUBLE_EQ(t.busy(), 3.0);
}

TEST(ResourceTimeline, RespectsEarliestAndRecordsGap) {
  ResourceTimeline t(Resource::kGpu);
  const StageSpan a = t.reserve("a", 5.0, 1.0);  // dependence-delayed
  EXPECT_DOUBLE_EQ(a.start_s, 5.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 1.0);
  // The [0, 5) idle window is backfillable by an independent stage.
  const StageSpan b = t.reserve("b", 0, 2.0);
  EXPECT_DOUBLE_EQ(b.start_s, 0);
  EXPECT_DOUBLE_EQ(b.end_s, 2.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);  // frontier unchanged by backfill
  // The remaining [2, 5) slice is still available...
  const StageSpan c = t.reserve("c", 0, 3.0);
  EXPECT_DOUBLE_EQ(c.start_s, 2.0);
  EXPECT_DOUBLE_EQ(c.end_s, 5.0);
  // ...and once full, new work appends at the frontier.
  const StageSpan d = t.reserve("d", 0, 0.5);
  EXPECT_DOUBLE_EQ(d.start_s, 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 6.5);
}

TEST(ResourceTimeline, BackfillHonorsEarliestInsideGap) {
  ResourceTimeline t;
  t.reserve("late", 10.0, 1.0);            // gap [0, 10)
  const StageSpan s = t.reserve("mid", 4.0, 2.0);
  EXPECT_DOUBLE_EQ(s.start_s, 4.0);        // not earlier than its dependence
  EXPECT_DOUBLE_EQ(s.end_s, 6.0);
  const StageSpan head = t.reserve("head", 0, 4.0);  // [0, 4) slice survives
  EXPECT_DOUBLE_EQ(head.start_s, 0);
  const StageSpan tail = t.reserve("tail", 0, 4.0);  // [6, 10) slice survives
  EXPECT_DOUBLE_EQ(tail.start_s, 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 11.0);
  EXPECT_DOUBLE_EQ(t.now(), 11.0);
}

TEST(ResourceTimeline, ZeroDurationOccupiesNothing) {
  ResourceTimeline t;
  t.reserve("a", 0, 1.0);
  // The resource is occupied until 1.0, so an instantaneous stage asked for
  // at 0.25 is stamped when the resource actually frees up — not inside the
  // busy interval (that timestamp would order it before work it follows).
  const StageSpan z = t.reserve("z", 0.25, 0.0);
  EXPECT_DOUBLE_EQ(z.start_s, 1.0);
  EXPECT_DOUBLE_EQ(z.duration_s(), 0);
  EXPECT_DOUBLE_EQ(t.now(), 1.0);   // clock untouched
  EXPECT_DOUBLE_EQ(t.busy(), 1.0);  // occupancy untouched

  // In an idle gap the requested time is granted as-is.
  t.reserve("b", 3.0, 1.0);
  const StageSpan g = t.reserve("g", 2.0, 0.0);
  EXPECT_DOUBLE_EQ(g.start_s, 2.0);
  EXPECT_DOUBLE_EQ(t.now(), 4.0);
}

TEST(ResourceTimeline, BlockStartFindsFirstWindowThatFitsWholeBlock) {
  ResourceTimeline t;
  t.reserve("late", 10.0, 1.0);  // idle window [0, 10)
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(t.block_start(3.0, 4.0), 3.0);   // fits later in the gap
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 12.0), 11.0); // too big: frontier
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 0.0), 0.0);   // degenerate block
}

TEST(ResourceTimeline, BackToBackBlockIsContiguousAndSkipsShortGaps) {
  ResourceTimeline t;
  t.reserve("early", 1.0, 1.0);  // idle window [0, 1) — too short for the
  t.reserve("late", 5.0, 1.0);   // block; window [2, 5) fits it whole
  // Place the segments back-to-back from block_start, as drain()'s
  // coalesced wave upload does.
  const std::pair<const char*, double> segments[] = {
      {"seg0", 1.0}, {"seg1", 0.0}, {"seg2", 1.5}};
  std::vector<StageSpan> spans;
  double cursor = t.block_start(0.0, 2.5);
  for (const auto& [stage, duration] : segments) {
    spans.push_back(t.reserve(stage, cursor, duration));
    cursor = spans.back().end_s;
  }
  ASSERT_EQ(spans.size(), 3u);
  // The whole block lands in [2, 5): no segment leaks into the [0, 1) gap.
  EXPECT_DOUBLE_EQ(spans[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(spans[0].end_s, 3.0);
  // Zero-duration segments pin at the running cursor, occupying nothing.
  EXPECT_DOUBLE_EQ(spans[1].start_s, 3.0);
  EXPECT_DOUBLE_EQ(spans[1].end_s, 3.0);
  // Segments are back-to-back: no idle time inside the block.
  EXPECT_DOUBLE_EQ(spans[2].start_s, 3.0);
  EXPECT_DOUBLE_EQ(spans[2].end_s, 4.5);
  // The short head gap survives for later independent work.
  EXPECT_DOUBLE_EQ(t.reserve("backfill", 0.0, 0.5).start_s, 0.0);
}

// ------------------------------------------------------------------- waves

using OperandIds = std::vector<std::array<std::uint32_t, 2>>;

TEST(FormWaves, PartitionsContiguouslyAndGroupsSharedOperands) {
  // Requests 0-2 share operand 0 and fit the 3-operand cap together;
  // request 3's two fresh operands would blow the cap, starting wave 2.
  const OperandIds ids = {{0, 0}, {0, 1}, {1, 0}, {2, 3}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 3);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].begin, 0u);
  EXPECT_EQ(waves[0].end, 3u);
  EXPECT_EQ(waves[1].begin, 3u);
  EXPECT_EQ(waves[1].end, 4u);
  // With room for every operand the whole queue is one wave.
  const std::vector<WaveBounds> wide = form_waves(ids, 16, 8);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(wide[0].end, 4u);
}

TEST(FormWaves, MaxRequestsOneDegeneratesToSingleRequestWaves) {
  const OperandIds ids = {{0, 0}, {0, 0}, {0, 0}};
  const std::vector<WaveBounds> waves = form_waves(ids, 1, 8);
  ASSERT_EQ(waves.size(), 3u);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    EXPECT_EQ(waves[i].begin, i);
    EXPECT_EQ(waves[i].end, i + 1);
  }
}

TEST(FormWaves, OperandCapSplitsAllDistinctTraffic) {
  // All-distinct operands: dedup is a no-op and the operand cap is the
  // only thing bounding wave width (2 distinct operands per request).
  const OperandIds ids = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 4);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].end, 2u);
  EXPECT_EQ(waves[1].begin, 2u);
}

TEST(FormWaves, FreshOperandFreeRequestsRideAlongPastOperandCap) {
  // Request 2 re-uses operands already in the wave: it joins even though
  // the wave is at its operand cap.
  const OperandIds ids = {{0, 1}, {2, 3}, {1, 2}, {4, 4}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 4);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].end, 3u);
  EXPECT_EQ(waves[1].begin, 3u);
}

TEST(FormWaves, UnboundedCapsYieldOneWave) {
  const OperandIds ids = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}};
  const std::vector<WaveBounds> waves = form_waves(ids, 0, 0);
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].begin, 0u);
  EXPECT_EQ(waves[0].end, 5u);
}

TEST(FormWaves, EmptyQueueFormsNoWaves) {
  EXPECT_TRUE(form_waves({}, 16, 8).empty());
}

// ----------------------------------------------------------------- service

void expect_bit_identical(const CsrMatrix& want, const CsrMatrix& got,
                          const std::string& label) {
  EXPECT_EQ(want.rows, got.rows) << label;
  EXPECT_EQ(want.cols, got.cols) << label;
  EXPECT_EQ(want.indptr, got.indptr) << label;
  EXPECT_EQ(want.indices, got.indices) << label;
  EXPECT_EQ(want.values, got.values) << label;  // exact, not approximate
}

class ServiceTest : public testing::Test {
 protected:
  ServiceTest()
      : wiki_(make_dataset(dataset_spec("wiki-Vote"), 0.05)),
        enron_(make_dataset(dataset_spec("email-Enron"), 0.03)),
        pool_(2) {}

  CsrMatrix wiki_;
  CsrMatrix enron_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(ServiceTest, BatchOutputsBitIdenticalToSerialDriver) {
  SpgemmService service(plat_, pool_);
  const CsrMatrix* mats[] = {&wiki_, &enron_, &wiki_, &enron_, &wiki_,
                             &enron_, &wiki_, &enron_};
  for (const CsrMatrix* m : mats) {
    service.submit({m, nullptr, {}, ""});
  }
  ASSERT_EQ(service.pending(), 8u);
  const BatchResult batch = service.drain();
  EXPECT_EQ(service.pending(), 0u);
  ASSERT_EQ(batch.results.size(), 8u);

  double serial_total = 0;
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    const RunResult serial =
        run_hh_cpu(*mats[i], *mats[i], HhCpuOptions{}, plat_, pool_);
    serial_total += serial.report.total_s;
    expect_bit_identical(serial.c, batch.results[i].c,
                         "request " + std::to_string(i));
  }
  // Pipelining + plan cache + residency: strictly faster than back-to-back.
  EXPECT_LT(batch.batch.makespan_s, serial_total);
  EXPECT_GT(batch.batch.makespan_s, 0);
}

TEST_F(ServiceTest, PlanCacheHitsAreBitExactAndSkipIdentification) {
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, {}, "cold"});
  service.submit({&wiki_, nullptr, {}, "warm"});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 2u);

  EXPECT_FALSE(batch.requests[0].plan_cache_hit);
  EXPECT_TRUE(batch.requests[1].plan_cache_hit);
  // Same thresholds, same matrix → identical output.
  EXPECT_EQ(batch.results[0].report.threshold_a,
            batch.results[1].report.threshold_a);
  expect_bit_identical(batch.results[0].c, batch.results[1].c, "warm");
  // The hit skips identification but still pays classification.
  EXPECT_LT(batch.results[1].report.phase1_s,
            batch.results[0].report.phase1_s);
  EXPECT_GT(batch.results[1].report.phase1_s, 0);
  // The warm request found its operand resident: no H2D bytes.
  EXPECT_TRUE(batch.requests[1].inputs_resident);
  EXPECT_DOUBLE_EQ(batch.results[1].report.transfer_in_s, 0);
  EXPECT_EQ(service.plan_cache().stats().hits, 1);
}

TEST_F(ServiceTest, CacheSurvivesAcrossDrains) {
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, {}, ""});
  const BatchResult first = service.drain();
  service.submit({&wiki_, nullptr, {}, ""});
  const BatchResult second = service.drain();
  EXPECT_TRUE(second.requests[0].plan_cache_hit);
  expect_bit_identical(first.results[0].c, second.results[0].c, "redrain");
  // invalidate_inputs drops residency (plans stay: keyed by signature).
  service.invalidate_inputs();
  service.submit({&wiki_, nullptr, {}, ""});
  const BatchResult third = service.drain();
  EXPECT_TRUE(third.requests[0].plan_cache_hit);
  EXPECT_FALSE(third.requests[0].inputs_resident);
  expect_bit_identical(first.results[0].c, third.results[0].c, "invalidate");
}

TEST_F(ServiceTest, ExplicitThresholdsBypassTheCache) {
  SpgemmService service(plat_, pool_);
  SpgemmRequest req{&wiki_, nullptr, {}, ""};
  req.options.threshold_a = 4;
  req.options.threshold_b = 4;
  service.submit(std::move(req));
  service.drain();
  EXPECT_EQ(service.plan_cache().size(), 0u);
  EXPECT_EQ(service.plan_cache().stats().misses, 0);
}

TEST_F(ServiceTest, RectangularProductMatchesSerial) {
  const CsrMatrix a = test::random_csr(150, 90, 0.04, 3);
  const CsrMatrix b = test::random_csr(90, 120, 0.06, 5);
  SpgemmService service(plat_, pool_);
  service.submit({&a, &b, {}, "rect"});
  const BatchResult batch = service.drain();
  const RunResult serial = run_hh_cpu(a, b, HhCpuOptions{}, plat_, pool_);
  expect_bit_identical(serial.c, batch.results[0].c, "rect");
}

TEST_F(ServiceTest, ReportsAreInternallyConsistent) {
  SpgemmService service(plat_, pool_);
  for (int i = 0; i < 5; ++i) {
    service.submit({&wiki_, nullptr, {}, "r" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();
  const BatchReport& br = batch.batch;
  EXPECT_EQ(br.requests, 5u);
  EXPECT_LE(br.p50_latency_s, br.p95_latency_s);
  EXPECT_LE(br.p95_latency_s, br.p99_latency_s);
  EXPECT_LE(br.p99_latency_s, br.makespan_s + 1e-12);
  EXPECT_GT(br.cpu_busy_s, 0);
  double max_finish = 0;
  for (const RequestReport& r : batch.requests) {
    EXPECT_GE(r.queue_wait_s, 0) << r.label;
    EXPECT_DOUBLE_EQ(r.latency_s, r.finish_s - r.submit_s) << r.label;
    EXPECT_DOUBLE_EQ(r.run.total_s, r.latency_s) << r.label;
    max_finish = std::max(max_finish, r.finish_s);
    for (const StageSpan& s : r.spans) {
      EXPECT_GE(s.start_s, r.start_s - 1e-12) << r.label << " " << s.stage;
      EXPECT_LE(s.end_s, r.finish_s + 1e-12) << r.label << " " << s.stage;
      EXPECT_GT(s.duration_s(), 0) << r.label << " " << s.stage;
    }
  }
  EXPECT_DOUBLE_EQ(br.makespan_s, max_finish);
  // JSON renderings are single-line objects with the headline keys.
  const std::string j = br.to_json();
  EXPECT_NE(j.find("\"makespan_s\":"), std::string::npos);
  EXPECT_NE(j.find("\"p99_latency_s\":"), std::string::npos);
  const std::string rj = batch.requests[0].to_json();
  EXPECT_NE(rj.find("\"stages\":["), std::string::npos);
  EXPECT_NE(rj.find("\"run\":{"), std::string::npos);
  EXPECT_EQ(rj.find('\n'), std::string::npos);
}

TEST_F(ServiceTest, LabelsAreJsonEscapedInEveryReport) {
  // A caller-chosen label with a quote, a backslash and a newline must not
  // break the JSON of the request report or of the critical-path report.
  const std::string label = "q\"uo\\te\nline";
  const std::string escaped = "\"label\":\"q\\\"uo\\\\te\\u000aline\"";
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, {}, label});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.requests.size(), 1u);
  EXPECT_EQ(batch.requests[0].label, label);

  const std::string rj = batch.requests[0].to_json();
  EXPECT_NE(rj.find(escaped), std::string::npos) << rj;
  EXPECT_EQ(rj.find('\n'), std::string::npos);
  const std::string cj = batch.batch.critpath.to_json();
  EXPECT_NE(cj.find(escaped), std::string::npos);
  EXPECT_EQ(cj.find('\n'), std::string::npos);
  EXPECT_EQ(batch.batch.to_json().find('\n'), std::string::npos);
}

TEST_F(ServiceTest, SubmitRejectsMalformedRequestsWithTypedErrors) {
  SpgemmService service(plat_, pool_);

  // Null A operand.
  EXPECT_THROW(service.submit({nullptr, nullptr, {}, ""}),
               InvalidArgumentError);

  // Degenerate (empty) operand.
  CsrMatrix empty;
  EXPECT_THROW(service.submit({&empty, nullptr, {}, ""}),
               InvalidArgumentError);

  // Incompatible shapes: A.cols != B.rows.
  const CsrMatrix a = test::random_csr(10, 7, 0.3, 1);
  const CsrMatrix b = test::random_csr(9, 5, 0.3, 2);
  try {
    service.submit({&a, &b, {}, "shapes"});
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("incompatible"), std::string::npos);
  }

  // Inconsistent CSR arrays (indptr not matching indices).
  CsrMatrix broken = a;
  broken.indptr.back() += 1;
  EXPECT_THROW(service.submit({&broken, nullptr, {}, ""}),
               InvalidArgumentError);

  // Inverted/negative thresholds and negative queue knobs.
  SpgemmRequest neg_t{&wiki_, nullptr, {}, ""};
  neg_t.options.threshold_a = -3;
  EXPECT_THROW(service.submit(std::move(neg_t)), InvalidArgumentError);
  SpgemmRequest neg_q{&wiki_, nullptr, {}, ""};
  neg_q.options.queue.cpu_rows = -1;
  EXPECT_THROW(service.submit(std::move(neg_q)), InvalidArgumentError);

  // Negative deadline.
  SpgemmRequest neg_d{&wiki_, nullptr, {}, ""};
  neg_d.deadline_s = -1.0;
  EXPECT_THROW(service.submit(std::move(neg_d)), InvalidArgumentError);

  // Nothing malformed was admitted; a healthy request still goes through.
  EXPECT_EQ(service.pending(), 0u);
  service.submit({&wiki_, nullptr, {}, "ok"});
  EXPECT_EQ(service.pending(), 1u);
  EXPECT_TRUE(service.drain().requests[0].status.ok());
}

TEST_F(ServiceTest, WorkspacePoolingPreservesResults) {
  SpgemmService::Config no_pool;
  no_pool.use_workspace_pool = false;
  no_pool.keep_inputs_resident = false;
  SpgemmService plain(plat_, pool_, no_pool);
  SpgemmService pooled(plat_, pool_);
  for (SpgemmService* s : {&plain, &pooled}) {
    s->submit({&enron_, nullptr, {}, ""});
    s->submit({&wiki_, nullptr, {}, ""});
    s->submit({&enron_, nullptr, {}, ""});
  }
  const BatchResult a = plain.drain();
  const BatchResult b = pooled.drain();
  for (std::size_t i = 0; i < 3; ++i) {
    expect_bit_identical(a.results[i].c, b.results[i].c,
                         "pooled vs plain " + std::to_string(i));
  }
  EXPECT_GT(pooled.workspace_pool().stats().spa_reuses, 0);
  EXPECT_EQ(plain.workspace_pool().stats().spa_acquires, 0);
}

TEST_F(ServiceTest, TupleBuffersAreRecycledNotRetainedPerQueueUnit) {
  // Small operands: the auto unit size floors at 16 rows, so every request's
  // Phase III runs more units than the bound below. Each product appends to
  // one buffer per part (Phase II hh and ll, the queue) and hands its extra
  // block buffers back before the next product starts, so fresh buffers are
  // bounded by the three parts plus one product's blocks, however many units
  // ran. A design that kept each unit's buffers until Phase IV would need at
  // least one fresh buffer per unit.
  const CsrMatrix wiki = make_dataset(dataset_spec("wiki-Vote"), 0.25);
  const CsrMatrix enron = make_dataset(dataset_spec("email-Enron"), 0.06);
  ThreadPool pool(1);  // at most 4 blocks per product
  SpgemmService service(plat_, pool);
  for (int i = 0; i < 2; ++i) {
    service.submit({&wiki, nullptr, {}, ""});
    service.submit({&enron, nullptr, {}, ""});
  }
  const BatchResult batch = service.drain();
  const std::int64_t bound = 3 + 4;
  for (const RequestReport& r : batch.requests) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_GT(r.run.queue_cpu_units + r.run.queue_gpu_units, bound);
  }
  const WorkspacePool::Stats st = service.workspace_pool().stats();
  EXPECT_LE(st.coo_acquires - st.coo_reuses, bound);
  EXPECT_EQ(st.coo_live, 0);
}

// ------------------------------------------------------------ wave executor

TEST_F(ServiceTest, WaveOutputsBitIdenticalAndUploadsDeduped) {
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService waved(plat_, pool_, cfg);
  SpgemmService plain(plat_, pool_);
  const CsrMatrix* mats[] = {&wiki_, &enron_, &wiki_, &enron_, &wiki_,
                             &wiki_, &enron_, &enron_};
  for (SpgemmService* s : {&waved, &plain}) {
    for (const CsrMatrix* m : mats) s->submit({m, nullptr, {}, ""});
  }
  const BatchResult w = waved.drain();
  const BatchResult p = plain.drain();
  ASSERT_EQ(w.results.size(), std::size(mats));
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    const RunResult serial =
        run_hh_cpu(*mats[i], *mats[i], HhCpuOptions{}, plat_, pool_);
    expect_bit_identical(serial.c, w.results[i].c,
                         "wave request " + std::to_string(i));
    expect_bit_identical(p.results[i].c, w.results[i].c,
                         "wave vs plain " + std::to_string(i));
  }
  EXPECT_TRUE(w.batch.wave_enabled);
  EXPECT_GT(w.batch.wave.waves, 0);
  EXPECT_EQ(w.batch.wave.wave_requests,
            static_cast<std::int64_t>(std::size(mats)));
  // 8 requests over 2 distinct operands: dedup must have fired.
  EXPECT_GE(w.batch.wave.deduped_uploads, 1);
  EXPECT_GT(w.batch.wave.uploads, 0);
  // Every deduped use is PCIe traffic the plain schedule paid for.
  EXPECT_LT(w.batch.h2d_busy_s, p.batch.h2d_busy_s);
  EXPECT_NE(w.batch.to_json().find("\"wave\":{"), std::string::npos);
}

TEST_F(ServiceTest, WaveDisabledReportsByteIdenticalToLegacy) {
  // The wave knob present-but-disabled must not perturb a single byte of
  // the reports — including caps differing from the defaults. Workspace
  // pooling is off in both: its reuse counts depend on worker-thread
  // timing, not on anything the wave knob controls.
  SpgemmService::Config base;
  base.use_workspace_pool = false;
  SpgemmService::Config off = base;
  off.wave.enabled = false;
  off.wave.max_requests = 3;
  SpgemmService legacy(plat_, pool_, base);
  SpgemmService gated(plat_, pool_, off);
  for (SpgemmService* s : {&legacy, &gated}) {
    s->submit({&wiki_, nullptr, {}, "a"});
    s->submit({&enron_, nullptr, {}, "b"});
    s->submit({&wiki_, nullptr, {}, "c"});
  }
  const BatchResult l = legacy.drain();
  const BatchResult g = gated.drain();
  EXPECT_FALSE(g.batch.wave_enabled);
  EXPECT_EQ(l.batch.to_json(), g.batch.to_json());
  EXPECT_EQ(l.batch.to_string(), g.batch.to_string());
  EXPECT_EQ(g.batch.to_json().find("\"wave\""), std::string::npos);
  ASSERT_EQ(l.requests.size(), g.requests.size());
  for (std::size_t i = 0; i < l.requests.size(); ++i) {
    EXPECT_EQ(l.requests[i].to_json(), g.requests[i].to_json());
  }
}

TEST_F(ServiceTest, WaveAllDistinctOperandsDedupIsNoOp) {
  const CsrMatrix a = test::random_csr(120, 120, 0.05, 11);
  const CsrMatrix b = test::random_csr(120, 120, 0.05, 12);
  const CsrMatrix c = test::random_csr(120, 120, 0.05, 13);
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService service(plat_, pool_, cfg);
  for (const CsrMatrix* m : {&a, &b, &c}) {
    service.submit({m, nullptr, {}, ""});
  }
  const BatchResult r = service.drain();
  EXPECT_EQ(r.batch.wave.deduped_uploads, 0);
  EXPECT_EQ(r.batch.wave.uploads, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    const CsrMatrix* m = (i == 0) ? &a : (i == 1) ? &b : &c;
    const RunResult serial = run_hh_cpu(*m, *m, HhCpuOptions{}, plat_, pool_);
    expect_bit_identical(serial.c, r.results[i].c,
                         "distinct " + std::to_string(i));
  }
}

TEST_F(ServiceTest, WaveRefcountEvictionFiresWithoutStickyResidency) {
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.keep_inputs_resident = false;
  SpgemmService service(plat_, pool_, cfg);
  for (int i = 0; i < 4; ++i) service.submit({&wiki_, nullptr, {}, ""});
  const BatchResult r = service.drain();
  // One distinct operand, uploaded once, deduped three times, evicted when
  // its last user finished.
  EXPECT_EQ(r.batch.wave.uploads, 1);
  EXPECT_EQ(r.batch.wave.deduped_uploads, 3);
  EXPECT_GE(r.batch.wave.evictions, 1);
  // Sticky residency keeps the operand instead.
  SpgemmService::Config sticky;
  sticky.wave.enabled = true;
  SpgemmService keeper(plat_, pool_, sticky);
  for (int i = 0; i < 4; ++i) keeper.submit({&wiki_, nullptr, {}, ""});
  EXPECT_EQ(keeper.drain().batch.wave.evictions, 0);
}

TEST_F(ServiceTest, WaveSingleRequestWavesMatchPlainSchedule) {
  // max_requests == 1 exercises the smallest wave shape: every wave holds
  // one request, so batching never fires but accounting must still balance.
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.wave.max_requests = 1;
  SpgemmService service(plat_, pool_, cfg);
  SpgemmService plain(plat_, pool_);
  for (SpgemmService* s : {&service, &plain}) {
    s->submit({&wiki_, nullptr, {}, ""});
    s->submit({&enron_, nullptr, {}, ""});
    s->submit({&wiki_, nullptr, {}, ""});
  }
  const BatchResult w = service.drain();
  const BatchResult p = plain.drain();
  EXPECT_EQ(w.batch.wave.waves, 3);
  EXPECT_EQ(w.batch.wave.coalesced_uploads, 0);
  EXPECT_EQ(w.batch.wave.deduped_uploads, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_bit_identical(p.results[i].c, w.results[i].c,
                         "single-wave " + std::to_string(i));
  }
}

TEST_F(ServiceTest, WaveReportsAreReplayDeterministic) {
  // Same submissions through two fresh services: every report byte —
  // wave counters included — must match (same-seed replay determinism).
  const auto run = [&] {
    SpgemmService::Config cfg;
    cfg.wave.enabled = true;
    // Workspace-pool reuse counts depend on worker-thread timing (they
    // pre-date waves and are not part of the replay contract): pool off.
    cfg.use_workspace_pool = false;
    SpgemmService service(plat_, pool_, cfg);
    service.submit({&wiki_, nullptr, {}, "a"});
    service.submit({&wiki_, nullptr, {}, "b"});
    service.submit({&enron_, nullptr, {}, "c"});
    return service.drain();
  };
  const BatchResult first = run();
  const BatchResult second = run();
  EXPECT_EQ(first.batch.to_json(), second.batch.to_json());
  EXPECT_EQ(first.batch.to_string(), second.batch.to_string());
  ASSERT_EQ(first.requests.size(), second.requests.size());
  for (std::size_t i = 0; i < first.requests.size(); ++i) {
    EXPECT_EQ(first.requests[i].to_json(), second.requests[i].to_json());
  }
}

}  // namespace
}  // namespace hh
