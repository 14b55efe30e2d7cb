#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "device/platform.hpp"
#include "fault/checksum.hpp"
#include "gen/datasets.hpp"
#include "runtime/service.hpp"
#include "test_util.hpp"
#include "trace/perfetto_export.hpp"
#include "trace/trace.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// ---------------------------------------------------------------- injector

TEST(FaultInjector, DisabledPlanNeverFaults) {
  FaultInjector fi{FaultPlan{}};
  EXPECT_FALSE(fi.plan().enabled());
  for (int i = 0; i < 100; ++i) {
    for (FaultSite s : {FaultSite::kGpuKernel, FaultSite::kH2D,
                        FaultSite::kD2H, FaultSite::kCpuWorker}) {
      EXPECT_FALSE(fi.next(s).fault);
    }
  }
  EXPECT_EQ(fi.counters(FaultSite::kGpuKernel).faults, 0u);
}

TEST(FaultInjector, ScheduleIsAPureFunctionOfSeedSiteAndOp) {
  FaultPlan plan;
  plan.gpu_kernel.rate = 0.4;
  plan.h2d.rate = 0.3;
  plan.d2h.rate = 0.2;
  plan.cpu_worker.rate = 0.1;

  // Interrogate sites in very different interleavings: the per-site
  // decision streams must be identical.
  FaultInjector a{plan};
  FaultInjector b{plan};
  std::vector<FaultDecision> a_gpu, b_gpu, a_h2d, b_h2d;
  for (int i = 0; i < 200; ++i) {
    a_gpu.push_back(a.next(FaultSite::kGpuKernel));
    a_h2d.push_back(a.next(FaultSite::kH2D));
  }
  for (int i = 0; i < 200; ++i) b_h2d.push_back(b.next(FaultSite::kH2D));
  for (int i = 0; i < 5; ++i) b.next(FaultSite::kCpuWorker);  // extra noise
  for (int i = 0; i < 200; ++i) b_gpu.push_back(b.next(FaultSite::kGpuKernel));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a_gpu[i].fault, b_gpu[i].fault) << "gpu op " << i;
    EXPECT_EQ(a_h2d[i].fault, b_h2d[i].fault) << "h2d op " << i;
    EXPECT_EQ(a_h2d[i].corrupt, b_h2d[i].corrupt) << "h2d op " << i;
    EXPECT_DOUBLE_EQ(a_gpu[i].fraction, b_gpu[i].fraction) << "gpu op " << i;
  }

  // reset() replays the schedule from op 0.
  const std::uint64_t faults_before = a.counters(FaultSite::kGpuKernel).faults;
  a.reset();
  EXPECT_EQ(a.counters(FaultSite::kGpuKernel).ops, 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next(FaultSite::kGpuKernel).fault, a_gpu[i].fault);
  }
  EXPECT_EQ(a.counters(FaultSite::kGpuKernel).faults, faults_before);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
  FaultPlan p1, p2;
  p1.gpu_kernel.rate = p2.gpu_kernel.rate = 0.5;
  p1.seed = 1;
  p2.seed = 2;
  FaultInjector a{p1}, b{p2};
  int differ = 0;
  for (int i = 0; i < 256; ++i) {
    differ += a.next(FaultSite::kGpuKernel).fault !=
              b.next(FaultSite::kGpuKernel).fault;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, StationaryRateIsRespectedEmpirically) {
  FaultPlan plan;
  plan.h2d.rate = 0.3;
  FaultInjector fi{plan};
  int faults = 0;
  for (int i = 0; i < 2000; ++i) faults += fi.next(FaultSite::kH2D).fault;
  EXPECT_GT(faults, 520);  // ~4 sigma around the 600 expectation
  EXPECT_LT(faults, 680);
  EXPECT_EQ(fi.counters(FaultSite::kH2D).ops, 2000u);
  EXPECT_EQ(fi.counters(FaultSite::kH2D).faults,
            static_cast<std::uint64_t>(faults));
}

TEST(FaultInjector, BurstWindowsFaultAtBurstRate) {
  FaultPlan plan;
  plan.gpu_kernel.rate = 0;  // quiet outside bursts
  plan.gpu_kernel.burst_rate = 1.0;
  plan.gpu_kernel.burst_start = 10;
  plan.gpu_kernel.burst_period = 20;
  plan.gpu_kernel.burst_len = 4;
  FaultInjector fi{plan};
  for (std::uint64_t op = 0; op < 100; ++op) {
    const bool in_window =
        op >= 10 && (op - 10) % 20 < 4;  // [10,14), [30,34), ...
    EXPECT_EQ(fi.next(FaultSite::kGpuKernel).fault, in_window) << "op " << op;
  }
}

TEST(FaultInjector, TriggerOpsAlwaysFault) {
  FaultPlan plan;
  plan.d2h.trigger_ops = {7, 3, 3, 42};  // unsorted + duplicate on purpose
  FaultInjector fi{plan};
  for (std::uint64_t op = 0; op < 50; ++op) {
    const bool expected = op == 3 || op == 7 || op == 42;
    EXPECT_EQ(fi.next(FaultSite::kD2H).fault, expected) << "op " << op;
  }
}

TEST(FaultInjector, AbortFractionsAreInteriorAndStallsUsePlanValue) {
  FaultPlan plan;
  plan.gpu_kernel.rate = 1.0;
  plan.cpu_worker.rate = 1.0;
  plan.cpu_stall_s = 1.25e-3;
  FaultInjector fi{plan};
  for (int i = 0; i < 100; ++i) {
    const FaultDecision d = fi.next(FaultSite::kGpuKernel);
    ASSERT_TRUE(d.fault);
    EXPECT_GT(d.fraction, 0.049);
    EXPECT_LT(d.fraction, 0.951);
    const FaultDecision s = fi.next(FaultSite::kCpuWorker);
    ASSERT_TRUE(s.fault);
    EXPECT_DOUBLE_EQ(s.stall_s, 1.25e-3);
  }
  EXPECT_DOUBLE_EQ(fi.counters(FaultSite::kCpuWorker).stall_s, 0.125);
}

// --------------------------------------------------------------- checksums

TEST(Checksum, Fnv1aDetectsSingleByteFlips) {
  std::vector<unsigned char> buf(256);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7);
  }
  const std::uint64_t clean = fnv1a64(buf.data(), buf.size());
  EXPECT_EQ(fnv1a64(buf.data(), buf.size()), clean);  // deterministic
  for (std::size_t i = 0; i < buf.size(); i += 37) {
    buf[i] ^= 1;
    EXPECT_NE(fnv1a64(buf.data(), buf.size()), clean) << "flip at " << i;
    buf[i] ^= 1;
  }
}

TEST(Checksum, MatrixChecksumCoversStructureAndValues) {
  const CsrMatrix m = test::random_csr(40, 30, 0.2, 17);
  CsrMatrix copy = m;
  EXPECT_EQ(matrix_checksum(m), matrix_checksum(copy));
  copy.values[3] += 1e-12;  // value damage
  EXPECT_NE(matrix_checksum(m), matrix_checksum(copy));
  copy = m;
  copy.indices[0] += 1;  // structural damage
  EXPECT_NE(matrix_checksum(m), matrix_checksum(copy));
}

// ---------------------------------------------------- fault-aware devices

TEST(FaultAwareDevices, AttemptsMatchCostModelWhenHealthy) {
  const HeteroPlatform plat;
  const CsrMatrix m = test::random_csr(60, 60, 0.1, 3);
  const DeviceAttempt tx =
      plat.link().h2d().matrix_transfer_attempt(m, nullptr);
  EXPECT_TRUE(tx.ok);
  EXPECT_DOUBLE_EQ(tx.elapsed_s, plat.link().h2d().matrix_transfer_time(m));

  ProductStats s;
  s.rows = 100;
  s.flops = 100000;
  s.a_nnz = 500;
  s.tuples = 50000;
  const DeviceAttempt k = plat.gpu().kernel_attempt(s, nullptr);
  EXPECT_TRUE(k.ok);
  EXPECT_DOUBLE_EQ(k.elapsed_s, plat.gpu().kernel_time(s));
  EXPECT_DOUBLE_EQ(plat.cpu().stall_s(nullptr), 0);
}

TEST(FaultAwareDevices, AbortWastesPartOfTheOpNeverLessThanOverheads) {
  FaultPlan plan;
  plan.gpu_kernel.rate = 1.0;
  plan.h2d.rate = 1.0;
  plan.transfer_corruption_fraction = 0;  // hard failures only
  FaultInjector fi{plan};
  const HeteroPlatform plat;
  const CsrMatrix m = test::random_csr(120, 120, 0.1, 5);
  const double full_tx = plat.link().h2d().matrix_transfer_time(m);
  for (int i = 0; i < 20; ++i) {
    const DeviceAttempt tx = plat.link().h2d().matrix_transfer_attempt(m, &fi);
    EXPECT_FALSE(tx.ok);
    EXPECT_FALSE(tx.corrupt);
    EXPECT_GE(tx.elapsed_s, plat.link().model().latency_s - 1e-15);
    EXPECT_LT(tx.elapsed_s, full_tx);
  }

  ProductStats s;
  s.rows = 1000;
  s.flops = 5000000;
  s.a_nnz = 4000;
  s.tuples = 2000000;
  const double full_kernel = plat.gpu().kernel_time(s);
  ASSERT_GT(full_kernel, 0);
  for (int i = 0; i < 20; ++i) {
    const DeviceAttempt k = plat.gpu().kernel_attempt(s, &fi);
    EXPECT_FALSE(k.ok);
    EXPECT_GE(k.elapsed_s, plat.gpu().model().kernel_launch_s - 1e-15);
    EXPECT_LT(k.elapsed_s, full_kernel);
  }
}

TEST(FaultAwareDevices, CorruptionSpendsTheFullTransfer) {
  FaultPlan plan;
  plan.h2d.rate = 1.0;
  plan.transfer_corruption_fraction = 1.0;  // every fault is a corruption
  FaultInjector fi{plan};
  const HeteroPlatform plat;
  const CsrMatrix m = test::random_csr(80, 80, 0.1, 5);
  const DeviceAttempt tx = plat.link().h2d().matrix_transfer_attempt(m, &fi);
  EXPECT_FALSE(tx.ok);
  EXPECT_TRUE(tx.corrupt);
  EXPECT_DOUBLE_EQ(tx.elapsed_s, plat.link().h2d().matrix_transfer_time(m));
}

TEST(FaultAwareDevices, ZeroWorkOpsDoNotConsumeInjectorOps) {
  FaultPlan plan;
  plan.gpu_kernel.rate = 1.0;
  plan.h2d.rate = 1.0;
  plan.d2h.rate = 1.0;
  FaultInjector fi{plan};
  const HeteroPlatform plat;
  EXPECT_TRUE(plat.gpu().kernel_attempt(ProductStats{}, &fi).ok);
  EXPECT_TRUE(plat.link().h2d().transfer_attempt(0, &fi).ok);
  EXPECT_TRUE(plat.link().d2h().tuple_transfer_attempt(0, &fi).ok);
  EXPECT_EQ(fi.counters(FaultSite::kGpuKernel).ops, 0u);
  EXPECT_EQ(fi.counters(FaultSite::kH2D).ops, 0u);
  EXPECT_EQ(fi.counters(FaultSite::kD2H).ops, 0u);
}

// ------------------------------------------------------ service recovery

void expect_bit_identical(const CsrMatrix& want, const CsrMatrix& got,
                          const std::string& label) {
  EXPECT_EQ(want.rows, got.rows) << label;
  EXPECT_EQ(want.cols, got.cols) << label;
  EXPECT_EQ(want.indptr, got.indptr) << label;
  EXPECT_EQ(want.indices, got.indices) << label;
  EXPECT_EQ(want.values, got.values) << label;  // exact, not approximate
}

class FaultRecoveryTest : public testing::Test {
 protected:
  FaultRecoveryTest()
      : wiki_(make_dataset(dataset_spec("wiki-Vote"), 0.05)),
        enron_(make_dataset(dataset_spec("email-Enron"), 0.03)),
        pool_(2) {}

  const CsrMatrix& mat(std::size_t i) const {
    return i % 2 == 0 ? wiki_ : enron_;
  }

  /// Fault-free serial reference for C = M×M.
  CsrMatrix serial_reference(const CsrMatrix& m) {
    return run_hh_cpu(m, m, HhCpuOptions{}, plat_, pool_).c;
  }

  CsrMatrix wiki_;
  CsrMatrix enron_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(FaultRecoveryTest, LargeFaultedBatchDrainsWithBitIdenticalOutputs) {
  SpgemmService::Config cfg;
  cfg.fault_plan.gpu_kernel.rate = 0.25;
  cfg.fault_plan.h2d.rate = 0.15;
  cfg.fault_plan.d2h.rate = 0.15;
  cfg.fault_plan.cpu_worker.rate = 0.10;
  cfg.keep_inputs_resident = false;  // every request pays (faultable) H2D
  SpgemmService service(plat_, pool_, cfg);

  constexpr std::size_t kRequests = 104;
  for (std::size_t i = 0; i < kRequests; ++i) {
    service.submit({&mat(i), nullptr, {}, "q" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();

  // Zero lost requests: every submitted request produced a report...
  ASSERT_EQ(batch.results.size(), kRequests);
  ASSERT_EQ(batch.requests.size(), kRequests);
  EXPECT_EQ(batch.batch.requests, kRequests);
  EXPECT_EQ(batch.batch.completed, kRequests);  // no deadlines configured
  EXPECT_EQ(batch.batch.deadline_missed, 0u);
  EXPECT_EQ(batch.batch.shed, 0u);

  // ...and every output is bit-identical to the fault-free serial driver,
  // retried or degraded alike.
  const CsrMatrix ref_wiki = serial_reference(wiki_);
  const CsrMatrix ref_enron = serial_reference(enron_);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(batch.requests[i].status.ok()) << batch.requests[i].label;
    expect_bit_identical(i % 2 == 0 ? ref_wiki : ref_enron,
                         batch.results[i].c, batch.requests[i].label);
  }

  // The fault rates above make a silent fault-free run astronomically
  // unlikely — recovery visibly happened and is reported.
  EXPECT_GT(batch.batch.faults.total_faults(), 0);
  EXPECT_GT(batch.batch.faults.retries, 0);
  EXPECT_GT(batch.batch.faults.h2d_faults, 0);
  EXPECT_GT(batch.batch.faults.gpu_aborts, 0);
  EXPECT_GT(batch.batch.faults.backoff_s, 0);
  const std::string j = batch.batch.to_json();
  EXPECT_NE(j.find("\"faults\":{\"gpu_aborts\":"), std::string::npos);
  EXPECT_NE(j.find("\"degraded\":"), std::string::npos);
  EXPECT_NE(j.find("\"shed\":"), std::string::npos);

  // No pooled workspace leaked across the faulted batch.
  EXPECT_EQ(service.workspace_pool().stats().spa_live, 0);
  EXPECT_EQ(service.workspace_pool().stats().coo_live, 0);
}

TEST_F(FaultRecoveryTest, PersistentGpuFailureDegradesToCpuOnly) {
  SpgemmService::Config cfg;
  cfg.fault_plan.gpu_kernel.rate = 1.0;  // GPU is dead
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&wiki_, nullptr, {}, "dead-gpu"});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 1u);
  const RequestReport& rr = batch.requests[0];
  EXPECT_TRUE(rr.status.ok());
  EXPECT_TRUE(rr.degraded_to_cpu);
  EXPECT_EQ(batch.batch.degraded, 1u);
  EXPECT_EQ(rr.faults.gpu_aborts,
            SpgemmService::Config{}.recovery.gpu_failures_before_degrade);
  // Nothing shipped back: the CPU recomputed the GPU share locally...
  EXPECT_DOUBLE_EQ(batch.results[0].report.transfer_out_s, 0);
  // ...and the CPU-only output is still bit-identical.
  expect_bit_identical(serial_reference(wiki_), batch.results[0].c,
                       "degraded");
  // The degraded re-plan shows up as a CPU span.
  bool saw_replan = false;
  for (const StageSpan& s : rr.spans) {
    saw_replan |= std::string(s.stage) == "degraded-cpu-replan";
  }
  EXPECT_TRUE(saw_replan);
}

TEST_F(FaultRecoveryTest, CorruptedUploadIsRetriedAndNeverLeftResident) {
  SpgemmService::Config cfg;
  cfg.fault_plan.h2d.trigger_ops = {0};  // first upload attempt corrupts
  cfg.fault_plan.transfer_corruption_fraction = 1.0;
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&wiki_, nullptr, {}, "first"});
  service.submit({&wiki_, nullptr, {}, "second"});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 2u);

  const RequestReport& first = batch.requests[0];
  EXPECT_EQ(first.faults.h2d_faults, 1);
  EXPECT_EQ(first.faults.corruptions, 1);
  EXPECT_EQ(first.faults.retries, 1);
  EXPECT_FALSE(first.inputs_resident);  // it paid (twice) for the upload
  // The corrupt attempt spent a full transfer, then the re-send succeeded:
  // total H2D time is exactly two transfers.
  EXPECT_DOUBLE_EQ(batch.results[0].report.transfer_in_s,
                   2 * plat_.link().h2d().matrix_transfer_time(wiki_));

  // Residency was recorded only for the *successful* copy: the second
  // request reuses it without re-uploading.
  EXPECT_TRUE(batch.requests[1].inputs_resident);
  expect_bit_identical(serial_reference(wiki_), batch.results[0].c, "first");
  expect_bit_identical(batch.results[0].c, batch.results[1].c, "second");
}

TEST_F(FaultRecoveryTest, TransferRetryExhaustionDegradesInsteadOfLosing) {
  SpgemmService::Config cfg;
  cfg.fault_plan.h2d.rate = 1.0;  // the upstream link is dead
  cfg.fault_plan.transfer_corruption_fraction = 0;
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&enron_, nullptr, {}, "dead-link"});
  const BatchResult batch = service.drain();
  const RequestReport& rr = batch.requests[0];
  EXPECT_TRUE(rr.status.ok());
  EXPECT_TRUE(rr.degraded_to_cpu);
  EXPECT_EQ(rr.faults.h2d_faults,
            SpgemmService::Config{}.recovery.max_attempts);
  expect_bit_identical(serial_reference(enron_), batch.results[0].c,
                       "dead-link");
}

TEST_F(FaultRecoveryTest, DeadlineCancelsCleanlyAndQuarantinesThePlan) {
  SpgemmService service(plat_, pool_, SpgemmService::Config{});
  service.submit({&wiki_, nullptr, {}, "warm"});
  service.drain();  // warms the plan cache
  ASSERT_EQ(service.plan_cache().size(), 1u);

  SpgemmRequest doomed{&wiki_, nullptr, {}, "doomed"};
  doomed.deadline_s = 1e-12;  // cannot even finish Phase I
  service.submit(std::move(doomed));
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 1u);
  const RequestReport& rr = batch.requests[0];
  EXPECT_FALSE(rr.status.ok());
  EXPECT_EQ(rr.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(rr.deadline_missed);
  EXPECT_EQ(batch.batch.deadline_missed, 1u);
  EXPECT_EQ(batch.batch.completed, 0u);
  EXPECT_EQ(batch.results[0].c.nnz(), 0);  // no output
  EXPECT_GT(rr.latency_s, 0);

  // The plan it rode on was quarantined; nothing pooled leaked.
  EXPECT_EQ(service.plan_cache().size(), 0u);
  EXPECT_EQ(service.plan_cache().stats().quarantines, 1);
  EXPECT_EQ(service.workspace_pool().stats().spa_live, 0);
  EXPECT_EQ(service.workspace_pool().stats().coo_live, 0);

  // The service recovers: the same matrix re-identifies and completes.
  service.submit({&wiki_, nullptr, {}, "after"});
  const BatchResult after = service.drain();
  EXPECT_TRUE(after.requests[0].status.ok());
  EXPECT_FALSE(after.requests[0].plan_cache_hit);  // quarantined ⇒ re-identify
  expect_bit_identical(serial_reference(wiki_), after.results[0].c, "after");
}

TEST_F(FaultRecoveryTest, MidPipelineDeadlineReleasesPooledBuffers) {
  // Deadlines that admit Phase I + the upload but not the whole pipeline
  // cancel after Phase II buffers exist; they must go back to the pool.
  SpgemmService service(plat_, pool_, SpgemmService::Config{});
  service.submit({&wiki_, nullptr, {}, "probe"});
  const BatchResult probe = service.drain();
  const double full = probe.requests[0].latency_s;

  for (int i = 0; i < 6; ++i) {
    SpgemmRequest req{&wiki_, nullptr, {}, "cut" + std::to_string(i)};
    req.deadline_s = full * (0.15 + 0.1 * i);  // cut at varying stages
    service.submit(std::move(req));
  }
  const BatchResult batch = service.drain();
  EXPECT_EQ(service.workspace_pool().stats().spa_live, 0);
  EXPECT_EQ(service.workspace_pool().stats().coo_live, 0);
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    if (!batch.requests[i].deadline_missed) {
      EXPECT_GT(batch.results[i].c.nnz(), 0) << batch.requests[i].label;
    } else {
      EXPECT_EQ(batch.results[i].c.nnz(), 0) << batch.requests[i].label;
    }
  }
}

TEST_F(FaultRecoveryTest, BoundedAdmissionShedsAndReports) {
  SpgemmService::Config cfg;
  cfg.admission_capacity = 2;
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&wiki_, nullptr, {}, "a"});
  service.submit({&enron_, nullptr, {}, "b"});
  EXPECT_THROW(service.submit({&wiki_, nullptr, {}, "c"}), AdmissionError);
  try {
    service.submit({&wiki_, nullptr, {}, "d"});
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(service.pending(), 2u);
  const BatchResult batch = service.drain();
  EXPECT_EQ(batch.batch.requests, 2u);
  EXPECT_EQ(batch.batch.shed, 2u);
  EXPECT_EQ(batch.batch.completed, 2u);
  // The shed counter does not bleed into the next batch.
  service.submit({&wiki_, nullptr, {}, "e"});
  EXPECT_EQ(service.drain().batch.shed, 0u);
}

TEST_F(FaultRecoveryTest, SameSeedReplaysIdenticalScheduleAndReports) {
  SpgemmService::Config cfg;
  cfg.fault_plan.gpu_kernel.rate = 0.3;
  cfg.fault_plan.h2d.rate = 0.2;
  cfg.fault_plan.d2h.rate = 0.2;
  cfg.fault_plan.cpu_worker.rate = 0.15;
  cfg.keep_inputs_resident = false;
  cfg.fault_plan.seed = 0xfeedface;

  auto run_once = [&]() {
    SpgemmService service(plat_, pool_, cfg);
    for (int i = 0; i < 12; ++i) {
      service.submit(
          {&mat(static_cast<std::size_t>(i)), nullptr, {}, "r" + std::to_string(i)});
    }
    return service.drain();
  };
  const BatchResult first = run_once();
  const BatchResult second = run_once();

  // Deterministic replay: identical fault schedule, identical recovery
  // decisions, identical spans and timings — down to the rendered JSON,
  // workspace-pool counts included.
  EXPECT_EQ(first.batch.to_json(), second.batch.to_json());
  ASSERT_EQ(first.requests.size(), second.requests.size());
  for (std::size_t i = 0; i < first.requests.size(); ++i) {
    EXPECT_EQ(first.requests[i].to_json(), second.requests[i].to_json());
    expect_bit_identical(first.results[i].c, second.results[i].c,
                         "replay " + std::to_string(i));
  }
  EXPECT_GT(first.batch.faults.total_faults(), 0);
}

// --------------------------------------------------- retry backoff jitter

TEST_F(FaultRecoveryTest, DecorrelatedJitterIsDeterministicAndCapped) {
  SpgemmService::Config cfg;
  cfg.fault_plan.gpu_kernel.rate = 0.3;
  cfg.fault_plan.h2d.rate = 0.2;
  cfg.keep_inputs_resident = false;
  cfg.recovery.decorrelated_jitter = true;

  auto run_once = [&]() {
    SpgemmService service(plat_, pool_, cfg);
    for (std::size_t i = 0; i < 12; ++i) {
      service.submit({&mat(i), nullptr, {}, "j" + std::to_string(i)});
    }
    return service.drain();
  };
  const BatchResult a = run_once();
  const BatchResult b = run_once();

  // The jitter stream is seeded, not wall-clock: same-seed replays render
  // byte-identical reports.
  EXPECT_EQ(a.batch.to_json(), b.batch.to_json());

  // Retries happened, every wait respected the cap, the knob is echoed.
  EXPECT_GT(a.batch.faults.retries, 0);
  EXPECT_GT(a.batch.faults.backoff_s, 0);
  EXPECT_LE(a.batch.faults.backoff_s,
            a.batch.faults.retries * cfg.recovery.backoff_cap_s + 1e-12);
  EXPECT_TRUE(a.batch.backoff_jitter);
  EXPECT_NE(a.batch.to_json().find("\"backoff_jitter\":true"),
            std::string::npos);

  // Jitter moves waits, never numerics: outputs stay bit-identical.
  expect_bit_identical(serial_reference(wiki_), a.results[0].c, "jitter-w");
  expect_bit_identical(serial_reference(enron_), a.results[1].c, "jitter-e");
}

TEST_F(FaultRecoveryTest, JitterKnobOffPreservesLegacyBackoffExactly) {
  SpgemmService::Config base;
  base.fault_plan.gpu_kernel.rate = 0.3;
  base.keep_inputs_resident = false;

  auto run_with = [&](const SpgemmService::Config& cfg) {
    SpgemmService service(plat_, pool_, cfg);
    for (std::size_t i = 0; i < 8; ++i) {
      service.submit({&mat(i), nullptr, {}, "k" + std::to_string(i)});
    }
    return service.drain();
  };

  // With the knob off, the jitter PRNG is never consumed: a config that
  // differs only in the (unused) jitter seed behaves byte-identically.
  SpgemmService::Config off = base;
  off.recovery.jitter_seed = 0x123456789abcdefULL;
  const BatchReport base_b = run_with(base).batch;
  const BatchReport off_b = run_with(off).batch;
  EXPECT_EQ(base_b.to_json(), off_b.to_json());
  EXPECT_FALSE(base_b.backoff_jitter);

  // Turning it on actually changes the waits.
  SpgemmService::Config on = base;
  on.recovery.decorrelated_jitter = true;
  const BatchResult jittered = run_with(on);
  EXPECT_GT(jittered.batch.faults.retries, 0);
  EXPECT_NE(jittered.batch.faults.backoff_s, base_b.faults.backoff_s);
}

TEST_F(FaultRecoveryTest, FaultFreePlanIsUnperturbedByTheFaultMachinery) {
  // With an empty FaultPlan the service must schedule exactly as if the
  // fault layer did not exist (the injector is never consulted).
  SpgemmService plain(plat_, pool_);
  SpgemmService::Config cfg;  // default: fault-free
  SpgemmService faultless(plat_, pool_, cfg);
  for (SpgemmService* s : {&plain, &faultless}) {
    s->submit({&wiki_, nullptr, {}, "x"});
    s->submit({&enron_, nullptr, {}, "y"});
  }
  const BatchResult a = plain.drain();
  const BatchResult b = faultless.drain();
  EXPECT_EQ(a.batch.to_json(), b.batch.to_json());
  EXPECT_EQ(a.requests[0].to_json(), b.requests[0].to_json());
  EXPECT_EQ(faultless.fault_injector().counters(FaultSite::kGpuKernel).ops,
            0u);
}

// ------------------------------------------------------- waves under fault

TEST_F(FaultRecoveryTest, WaveFaultedBatchStaysBitIdenticalAndEvictsMidWave) {
  // Waves + injected PCIe/GPU faults + refcounted residency: every request
  // still lands bit-identical, and refcount-zero evictions fire while the
  // wave machinery is live (keep_inputs_resident == false).
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.fault_plan.h2d.rate = 0.35;
  cfg.fault_plan.gpu_kernel.rate = 0.25;
  cfg.keep_inputs_resident = false;
  SpgemmService service(plat_, pool_, cfg);

  constexpr std::size_t kRequests = 24;
  for (std::size_t i = 0; i < kRequests; ++i) {
    service.submit({&mat(i), nullptr, {}, "w" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), kRequests);
  EXPECT_EQ(batch.batch.completed, kRequests);

  const CsrMatrix ref_wiki = serial_reference(wiki_);
  const CsrMatrix ref_enron = serial_reference(enron_);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(batch.requests[i].status.ok()) << batch.requests[i].label;
    expect_bit_identical(i % 2 == 0 ? ref_wiki : ref_enron,
                         batch.results[i].c, batch.requests[i].label);
  }
  // The rates above make a fault-free run astronomically unlikely.
  EXPECT_GT(batch.batch.faults.total_faults(), 0);
  // Two operands per wave, deduped and then dropped at refcount zero.
  EXPECT_GE(batch.batch.wave.deduped_uploads, 1);
  EXPECT_GE(batch.batch.wave.evictions, 2);
  EXPECT_EQ(service.workspace_pool().stats().spa_live, 0);
}

TEST_F(FaultRecoveryTest, WaveCorruptUploadRetriesWithoutPoisoningDedup) {
  // The wave's first (lead) upload attempt corrupts: the wave falls back to
  // per-operand retries, the re-send succeeds, and every deduped user of
  // the operand reads the *clean* copy.
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.fault_plan.h2d.trigger_ops = {0};
  cfg.fault_plan.transfer_corruption_fraction = 1.0;
  SpgemmService service(plat_, pool_, cfg);
  for (int i = 0; i < 3; ++i) {
    service.submit({&wiki_, nullptr, {}, "c" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 3u);
  // The corruption and retry are attributed to the operand's first user.
  EXPECT_EQ(batch.requests[0].faults.corruptions, 1);
  EXPECT_EQ(batch.requests[0].faults.retries, 1);
  // One (retried) upload serves all three requests.
  EXPECT_EQ(batch.batch.wave.uploads, 1);
  EXPECT_EQ(batch.batch.wave.deduped_uploads, 2);
  const CsrMatrix ref = serial_reference(wiki_);
  for (int i = 0; i < 3; ++i) {
    expect_bit_identical(ref, batch.results[i].c,
                         batch.requests[i].label);
  }
}

// --------------------------------------------------- golden schedules

// Pins the exact recovery schedule — every retry wait, degrade point,
// cancellation, span, trace instant and report byte — of one faulted batch
// under the four retry-relevant configurations. The same-seed tests above
// only compare two runs of one build; these digests were computed once and
// must survive any refactor of the retry/backoff machinery unchanged.
struct GoldenCase {
  bool wave;
  bool jitter;
  std::uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "{wave=" << c.wave << ", jitter=" << c.jitter << "}";
}

class GoldenScheduleTest : public FaultRecoveryTest,
                           public testing::WithParamInterface<GoldenCase> {};

void mix_text(std::uint64_t& h, const std::string& s) {
  h = fnv1a64(s.data(), s.size(), h);
}

TEST_P(GoldenScheduleTest, FaultedBatchScheduleMatchesGoldenDigest) {
  if (!TraceRecorder::compiled_in()) {
    GTEST_SKIP() << "the digest covers the trace; tracing compiled out";
  }
  const GoldenCase& gc = GetParam();
  TraceRecorder rec;
  rec.enable();
  SpgemmService::Config cfg;
  cfg.fault_plan.seed = 0x601dec0deULL;
  cfg.fault_plan.gpu_kernel.rate = 0.35;
  cfg.fault_plan.h2d.rate = 0.3;
  cfg.fault_plan.d2h.rate = 0.3;
  cfg.fault_plan.cpu_worker.rate = 0.15;
  cfg.keep_inputs_resident = false;  // every request (or wave) uploads
  cfg.use_workspace_pool = false;    // digests taken with no pool counts
  cfg.wave.enabled = gc.wave;
  cfg.wave.max_requests = 4;
  cfg.recovery.decorrelated_jitter = gc.jitter;
  cfg.trace = &rec;
  SpgemmService service(plat_, pool_, cfg);

  constexpr std::size_t kRequests = 20;
  for (std::size_t i = 0; i < kRequests; ++i) {
    SpgemmRequest req{&mat(i), nullptr, {}, "g" + std::to_string(i)};
    if (i == 5) req.deadline_s = 1e-6;   // cancelled right after Phase I
    if (i == 13) req.deadline_s = 2e-3;  // cancelled mid-pipeline
    service.submit(std::move(req));
  }
  const BatchResult out = service.drain();
  ASSERT_EQ(out.requests.size(), kRequests);

  // Every retry path of drain() ran: retries, a degrade, a corrupt upload,
  // GPU aborts, D2H faults, CPU stalls and a deadline cancellation.
  const BatchReport& b = out.batch;
  EXPECT_GT(b.faults.retries, 0);
  EXPECT_GT(b.faults.gpu_aborts, 0);
  EXPECT_GT(b.faults.d2h_faults, 0);
  EXPECT_GT(b.faults.cpu_stalls, 0);
  EXPECT_GE(b.degraded, 1u);
  EXPECT_GE(b.deadline_missed, 1u);
  bool corrupt_upload = false;
  for (const RequestReport& rr : out.requests) {
    for (const StageSpan& s : rr.spans) {
      corrupt_upload |= std::string(s.stage).find("h2d-input-corrupt") !=
                        std::string::npos;
    }
  }
  EXPECT_TRUE(corrupt_upload);

  std::uint64_t h = kFnv1aOffset;
  mix_text(h, b.to_json());
  for (const RequestReport& rr : out.requests) mix_text(h, rr.to_json());
  mix_text(h, chrome_trace_json(rec));
  EXPECT_EQ(h, gc.digest) << std::hex << "computed digest 0x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenScheduleTest,
    testing::Values(GoldenCase{false, false, 0x868740ac421f2c85ULL},
                    GoldenCase{false, true, 0xe04d275946bb573aULL},
                    GoldenCase{true, false, 0x2aa00c5ee73bc393ULL},
                    GoldenCase{true, true, 0x3336afec9f3d3441ULL}),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.wave ? "Wave" : "NoWave") +
             (info.param.jitter ? "Jitter" : "Ladder");
    });

TEST_F(FaultRecoveryTest, WaveUploadExhaustionDegradesEveryUser) {
  // A dead link exhausts the shared upload's retries: every request that
  // deduped onto that operand degrades to CPU — none is lost, and the
  // CPU-only outputs stay bit-identical.
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.fault_plan.h2d.rate = 1.0;
  cfg.fault_plan.transfer_corruption_fraction = 0;
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&enron_, nullptr, {}, "u0"});
  service.submit({&enron_, nullptr, {}, "u1"});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_EQ(batch.batch.degraded, 2u);
  const CsrMatrix ref = serial_reference(enron_);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(batch.requests[i].status.ok());
    EXPECT_TRUE(batch.requests[i].degraded_to_cpu);
    expect_bit_identical(ref, batch.results[i].c, batch.requests[i].label);
  }
}

}  // namespace
}  // namespace hh
