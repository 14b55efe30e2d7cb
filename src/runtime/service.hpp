// SpgemmService: a pipelined multi-query SpGEMM execution engine.
//
// The one-shot driver (run_hh_cpu) charges each request serially:
// transfer → compute → transfer. A service under sustained traffic does
// better: while request k computes, request k+1's operands are already
// crossing the H2D channel and its Phase I analysis can run in a CPU idle
// window; request k's result tuples cross D2H while k+1 occupies the GPU.
// drain() schedules each request's stages (core/hh_stages.hpp) on four
// independently-clocked resource timelines — CPU, GPU, H2D, D2H — with
// dependence-respecting insertion scheduling (runtime/timeline.hpp).
//
// Steady-state accelerators, all optional and all output-preserving:
//  - partition-plan cache keyed by sparsity signatures (runtime/plan_cache)
//    — a hit skips threshold identification;
//  - operand residency — a matrix already uploaded in this service's
//    lifetime is not re-shipped (device memory is retained across requests,
//    and each resident copy carries a checksum from fault/checksum.hpp);
//  - workspace pooling (spgemm/workspace.hpp) — SPA accumulators and tuple
//    buffers are recycled instead of reallocated per request.
//
// Fault tolerance (docs/robustness.md): when Config::fault_plan injects
// faults (fault/fault.hpp), the service recovers per request —
//  - transient GPU kernel aborts and PCIe failures are retried with
//    exponential backoff and bounded attempts;
//  - corrupted transfers are detected by checksum, the residency entry is
//    invalidated, and the operand is re-uploaded;
//  - after RecoveryPolicy::gpu_failures_before_degrade GPU-side failures
//    (or transfer-retry exhaustion) the request degrades to the CPU-only
//    Gustavson path: the GPU's share is re-charged on the CPU timeline and
//    no PCIe traffic is scheduled;
//  - per-request deadlines cancel a request that cannot finish in time, and
//    a bounded admission queue sheds load at submit().
// Numeric work always executes host-side with the same decomposition, so
// every completed request's output matrix — retried, degraded, or not — is
// bit-identical to what a cold, serial, fault-free run_hh_cpu call
// produces; only the simulated clock bookkeeping differs. Submitted
// matrices must stay alive and unmodified until drain() returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hh_cpu.hpp"
#include "core/report.hpp"
#include "device/platform.hpp"
#include "fault/fault.hpp"
#include "obs/critpath.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/timeline.hpp"
#include "runtime/wave.hpp"
#include "sparse/csr.hpp"
#include "spgemm/workspace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "tune/calibration.hpp"
#include "tune/tuner.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace hh {

class WorkloadRecorder;  // obs/recorder.hpp
class SloMonitor;        // obs/slo.hpp

struct SpgemmRequest {
  const CsrMatrix* a = nullptr;
  const CsrMatrix* b = nullptr;  // nullptr = self product (B is A)
  HhCpuOptions options;          // explicit thresholds bypass the plan cache
  std::string label;
  double deadline_s = 0;  // relative to submit; 0 = Config::default_deadline_s
};

/// The request validation SpgemmService::submit performs, as a free function
/// so a fronting layer (the shard group, src/shard/) can reject malformed
/// requests before routing instead of discovering the throw mid-failover.
/// Throws InvalidArgumentError; returns normally on a well-formed request.
void validate_spgemm_request(const SpgemmRequest& request);

/// Per-request fault/recovery accounting.
struct FaultRecoveryStats {
  int gpu_aborts = 0;   // injected GPU kernel aborts seen
  int h2d_faults = 0;   // injected H2D failures + corruptions
  int d2h_faults = 0;
  int corruptions = 0;  // subset of transfer faults caught by checksum
  int cpu_stalls = 0;   // injected CPU worker stalls
  int retries = 0;      // re-executed attempts (all resources)
  double backoff_s = 0;  // total exponential-backoff delay inserted

  int total_faults() const {
    return gpu_aborts + h2d_faults + d2h_faults + cpu_stalls;
  }
  void accumulate(const FaultRecoveryStats& o);
  std::string to_json() const;
};

/// Per-request accounting: the familiar RunReport (phase durations) plus the
/// pipeline view — queue wait, absolute stage spans, cache/residency flags —
/// and the fault/recovery outcome.
struct RequestReport {
  RunReport run;  // run.total_s is the request latency
  std::size_t request_id = 0;
  std::string label;
  Status status;  // ok, or kDeadlineExceeded when cancelled
  bool plan_cache_hit = false;
  bool inputs_resident = false;  // no bytes crossed H2D for this request
  bool degraded_to_cpu = false;  // GPU share re-planned onto the CPU
  bool deadline_missed = false;  // cancelled: no output produced
  FaultRecoveryStats faults;
  double deadline_s = 0;    // effective relative deadline (0 = none)
  double submit_s = 0;
  double start_s = 0;       // first stage begins
  double finish_s = 0;      // merge ends (or cancellation point)
  double queue_wait_s = 0;  // start_s - submit_s
  double latency_s = 0;     // finish_s - submit_s
  std::vector<StageSpan> spans;
  std::string flame;  // one-row text flame of this request's spans over the
                      // batch window (trace/flame.hpp)

  std::string to_string() const;
  std::string to_json() const;
};

/// Batch-level accounting across one drain().
struct BatchReport {
  std::size_t requests = 0;
  std::size_t completed = 0;        // status ok (with or without recovery)
  std::size_t degraded = 0;         // finished on the CPU-only path
  std::size_t deadline_missed = 0;  // cancelled
  std::size_t shed = 0;             // rejected at submit since last drain
  FaultRecoveryStats faults;        // aggregated over the batch
  double makespan_s = 0;             // last finish over all requests
  double sequential_estimate_s = 0;  // first-order back-to-back serial cost
                                     // of the same work (cold transfers,
                                     // cold identification)
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  double cpu_busy_s = 0;  // occupied time per resource timeline
  double gpu_busy_s = 0;
  double h2d_busy_s = 0;
  double d2h_busy_s = 0;
  PlanCache::Stats plan_cache;
  WorkspacePool::Stats workspace;
  // Wave-executor accounting (runtime/wave.hpp). wave_enabled echoes
  // Config::wave.enabled; when false the stats stay zero and to_string /
  // to_json omit them entirely, keeping disabled reports byte-identical to
  // before the executor existed.
  bool wave_enabled = false;
  WaveStats wave;
  // Critical-path profile (obs/critpath.hpp): every drain attributes its
  // makespan to cpu/gpu/h2d/d2h/idle and decomposes each request's latency.
  CritPathReport critpath;
  bool backoff_jitter = false;  // RecoveryPolicy::decorrelated_jitter echo
  std::string flame;  // per-resource text flame view of the whole batch

  std::string to_string() const;
  std::string to_json() const;
};

struct BatchResult {
  std::vector<RunResult> results;  // submit order; results[i].report is the
                                   // same RunReport as requests[i].run. A
                                   // cancelled request's matrix is empty and
                                   // its report carries the deadline status.
  std::vector<RequestReport> requests;
  BatchReport batch;
};

/// How the service recovers from injected faults.
struct RecoveryPolicy {
  int max_attempts = 4;  // per transfer/kernel op, including the first try
  double backoff_base_s = 1e-4;   // wait before the 2nd attempt...
  double backoff_multiplier = 2;  // ...growing geometrically
  int gpu_failures_before_degrade = 3;  // per request, across all GPU stages
  // Decorrelated-jitter backoff (wait = base + u·(3·prev − base), capped):
  // spreads retries of correlated faults apart instead of synchronizing them
  // on the geometric ladder. Off by default — disabled, the service draws
  // nothing from the jitter stream and behaves byte-identically to before
  // the knob existed. The draws come from a dedicated deterministic PRNG
  // (jitter_seed), so same-seed replays stay bit-identical.
  bool decorrelated_jitter = false;
  double backoff_cap_s = 5e-2;        // ceiling on one jittered wait
  std::uint64_t jitter_seed = 0x6a17ULL;
};

class SpgemmService {
 public:
  struct Config {
    std::size_t plan_cache_capacity = 64;
    bool keep_inputs_resident = true;  // uploaded operands stay on the device
    bool use_workspace_pool = true;
    FaultPlan fault_plan;     // default: fault-free
    RecoveryPolicy recovery;
    std::size_t admission_capacity = 0;  // max pending; 0 = unbounded
    double default_deadline_s = 0;       // per-request default; 0 = none
    // Batched wave executor (runtime/wave.hpp, docs/runtime.md): drain()
    // groups requests sharing operands (by content signature) into waves,
    // uploads each distinct operand once per wave under a refcount,
    // coalesces the wave's H2D transfers into one block reservation, and
    // batches same-wave Phase II GPU launches. Output bits are unchanged;
    // disabled (the default), the service behaves — reports included —
    // byte-identically to before the executor existed.
    WaveConfig wave;
    // Online autotuning (src/tune/, docs/tuning.md): measured-feedback
    // refinement of cached thresholds plus cost-model calibration. Off by
    // default — a disabled tuner leaves every request, report and metric
    // exactly as they were without the subsystem. Tuning never changes
    // output bits: it only re-selects among threshold candidates, and every
    // candidate computes the same product.
    TuneConfig tune;
    // Optional structured tracing (trace/trace.hpp). The recorder must
    // outlive the service; it records nothing until enable()d. Every
    // timeline placement, device attempt outcome, retry, degradation and
    // cancellation lands in it with request identity — export with
    // trace/perfetto_export.hpp or render with trace/flame.hpp.
    TraceRecorder* trace = nullptr;
    // Optional workload flight recorder (obs/recorder.hpp): every drained
    // request appends one checksum-chained JSONL record (signature pair,
    // submit time, deadline, pinned thresholds, outcome, stage totals) —
    // the input of the trace-replay harness (obs/replay.hpp). Must outlive
    // the service. nullptr = off, with zero behavioural difference.
    WorkloadRecorder* recorder = nullptr;
    // Optional SLO monitor (obs/slo.hpp): every drained request is judged
    // against its objectives; `slo.*` instruments land wherever the monitor
    // is bound (bind it to this service's metrics() to keep one registry).
    // Must outlive the service. nullptr = off.
    SloMonitor* slo = nullptr;
  };

  SpgemmService(const HeteroPlatform& platform, ThreadPool& pool,
                Config config);
  SpgemmService(const HeteroPlatform& platform, ThreadPool& pool)
      : SpgemmService(platform, pool, Config{}) {}

  /// Enqueue; returns the request id (drain-order index). The matrices must
  /// outlive the next drain() and must not be modified. Throws
  /// InvalidArgumentError on a malformed request (null/degenerate operands,
  /// incompatible shapes, negative thresholds/deadline/queue knobs) and
  /// AdmissionError when the bounded admission queue is full (the shed is
  /// counted in the next BatchReport).
  std::size_t submit(SpgemmRequest request);

  std::size_t pending() const { return queue_.size(); }

  /// Execute every pending request over the pipelined timelines. Requests
  /// are admitted FIFO; stages are placed by the insertion scheduler.
  BatchResult drain();

  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  WorkspacePool& workspace_pool() { return workspace_; }
  const FaultInjector& fault_injector() const { return injector_; }
  const ThresholdTuner& tuner() const { return tuner_; }
  const CalibrationStore& calibration() const { return calib_; }
  // Mutable tuner/calibration access for snapshot rehydration (src/shard/):
  // a restarted shard restores both stores before serving traffic.
  ThresholdTuner& tuner() { return tuner_; }
  CalibrationStore& calibration() { return calib_; }

  /// Convergence/calibration snapshot of the online autotuner: entries in
  /// first-seen order, measured variants, promotion versions, per-device
  /// correction factors. Deterministic — same-seed replays render
  /// byte-identical JSON.
  TuneReport tune_report() const;

  /// Lifetime-cumulative instruments ("service.*", "plan_cache.*"): request
  /// outcome counters, fault/retry counters, a latency histogram, last-drain
  /// busy gauges. BatchReport stays the per-drain snapshot.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Drop device residency and cached host-side signatures (e.g. after the
  /// caller mutated or freed previously-submitted matrices).
  void invalidate_inputs();

 private:
  const MatrixSignature& signature_of(const CsrMatrix* m);

  const HeteroPlatform& platform_;
  ThreadPool& pool_;
  Config config_;
  PlanCache plan_cache_;
  WorkspacePool workspace_;
  FaultInjector injector_;
  ThresholdTuner tuner_;
  CalibrationStore calib_;
  Xoshiro256 jitter_rng_;  // consumed only when decorrelated_jitter is on
  std::vector<SpgemmRequest> queue_;
  std::size_t next_id_ = 0;
  MetricsRegistry metrics_;
  // BatchReport::shed is the per-drain delta of the lifetime-cumulative
  // "service.shed" counter; this is the counter's value at the last drain.
  std::int64_t shed_at_last_drain_ = 0;
  // Host-side memos, keyed by operand identity (see submit() contract).
  std::unordered_map<const CsrMatrix*, MatrixSignature> signatures_;
  // Device residency: operand → checksum of the uploaded copy.
  std::unordered_map<const CsrMatrix*, std::uint64_t> resident_;
  // Wave-mode residency, keyed by content signature so pointer-distinct but
  // bit-identical operands share one device copy. `refs` counts the
  // not-yet-finished users in the current drain; with
  // keep_inputs_resident == false an entry is evicted when refs reaches
  // zero. Kept separate from the pointer-keyed map above so enabling the
  // wave flag cannot change the legacy path's residency decisions.
  struct WaveResident {
    std::uint64_t checksum = 0;
    int refs = 0;
  };
  std::unordered_map<MatrixSignature, WaveResident, MatrixSignatureHash>
      wave_resident_;
};

}  // namespace hh
