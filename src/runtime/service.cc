#include "runtime/service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/hh_stages.hpp"
#include "core/partition_plan.hpp"
#include "core/threshold.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "trace/flame.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace hh {
namespace {

// A GPU "join time" no request can ever reach: passing it as the queue's
// gpu_start makes run_phase3 assign every unit to the CPU end — the
// CPU-only re-plan of a degraded request.
constexpr double kGpuNeverJoins = 1e300;

// One retried device op, described as data: the spans its attempts leave
// on the timeline, the FaultRecoveryStats counter a failed attempt bumps,
// and the trace instants of a failure and of a retry.
struct DeviceOpSpec {
  const char* ok_span;
  const char* fault_span;
  const char* corrupt_span;
  int FaultRecoveryStats::*fault_counter;
  const char* fault_instant;
  const char* corrupt_instant;
  const char* retry_instant;
};

constexpr DeviceOpSpec kWaveUpload{
    "wave-h2d-input", "wave-h2d-input-fault", "wave-h2d-input-corrupt",
    &FaultRecoveryStats::h2d_faults, "h2d-fault", "h2d-corrupt", "retry-h2d"};
constexpr DeviceOpSpec kPhase2Gpu{
    "phase2-gpu", "phase2-gpu-abort", "phase2-gpu-abort",
    &FaultRecoveryStats::gpu_aborts, "gpu-abort", "gpu-abort", "retry-gpu"};
constexpr DeviceOpSpec kPhase3Gpu{
    "phase3-gpu", "phase3-gpu-abort", "phase3-gpu-abort",
    &FaultRecoveryStats::gpu_aborts, "gpu-abort", "gpu-abort", "retry-gpu"};
constexpr DeviceOpSpec kDownload{
    "d2h-tuples", "d2h-tuples-fault", "d2h-tuples-corrupt",
    &FaultRecoveryStats::d2h_faults, "d2h-fault", "d2h-corrupt", "retry-d2h"};

// The caller-owned state one retried device op runs against.
struct RetryBudget {
  FaultRecoveryStats& stats;      // fault, retry and backoff counters
  std::vector<StageSpan>& spans;  // every attempt's span, in order
  double* elapsed_s;              // optional running sum of attempt times
  // Failures so far, checked against `limit`: a caller-owned per-op count
  // (transfers), or nullptr to make the op's own fault counter the budget
  // (GPU launches: the request-wide gpu_aborts).
  int* failures;
  int limit;
  double& prev_backoff_s;  // decorrelated-jitter carry
};

enum class OpOutcome { kOk, kCancelled, kExhausted };

struct OpResult {
  StageSpan last;  // the final attempt's span
  OpOutcome outcome;
};

// The matrices a request ships to the device: A, and B unless the product
// is A×A (then the second slot is null).
std::array<const CsrMatrix*, 2> operands_of(const SpgemmRequest& r) {
  return {r.a, r.b != nullptr && r.b != r.a ? r.b : nullptr};
}

}  // namespace

void FaultRecoveryStats::accumulate(const FaultRecoveryStats& o) {
  gpu_aborts += o.gpu_aborts;
  h2d_faults += o.h2d_faults;
  d2h_faults += o.d2h_faults;
  corruptions += o.corruptions;
  cpu_stalls += o.cpu_stalls;
  retries += o.retries;
  backoff_s += o.backoff_s;
}

std::string FaultRecoveryStats::to_json() const {
  std::ostringstream os;
  os << "{\"gpu_aborts\":" << gpu_aborts << ",\"h2d_faults\":" << h2d_faults
     << ",\"d2h_faults\":" << d2h_faults
     << ",\"corruptions\":" << corruptions
     << ",\"cpu_stalls\":" << cpu_stalls << ",\"retries\":" << retries
     << ",\"backoff_s\":" << jnum(backoff_s) << "}";
  return os.str();
}

std::string RequestReport::to_string() const {
  std::ostringstream os;
  os << "request #" << request_id;
  if (!label.empty()) os << " [" << label << "]";
  os << ": latency " << ms(latency_s) << " (wait " << ms(queue_wait_s)
     << "), finish at " << ms(finish_s);
  if (plan_cache_hit) os << ", plan cached";
  if (inputs_resident) os << ", inputs resident";
  if (degraded_to_cpu) os << ", DEGRADED to CPU-only";
  if (deadline_missed) os << ", DEADLINE MISSED (cancelled)";
  if (faults.total_faults() > 0) {
    os << ", faults " << faults.total_faults() << " (retries "
       << faults.retries << ")";
  }
  os << "\n";
  if (!flame.empty()) os << "    |" << flame << "|\n";
  for (const StageSpan& s : spans) {
    os << "    " << hh::to_string(s.resource) << "  " << s.stage << "  ["
       << ms(s.start_s) << " .. " << ms(s.end_s) << "]\n";
  }
  return os.str();
}

std::string RequestReport::to_json() const {
  std::ostringstream os;
  os << "{\"request_id\":" << request_id << ",\"label\":\"";
  append_escaped(os, label);
  os << "\",\"status\":\"" << hh::to_string(status.code)
     << "\",\"plan_cache_hit\":" << jbool(plan_cache_hit)
     << ",\"inputs_resident\":" << jbool(inputs_resident)
     << ",\"degraded_to_cpu\":" << jbool(degraded_to_cpu)
     << ",\"deadline_missed\":" << jbool(deadline_missed)
     << ",\"deadline_s\":" << jnum(deadline_s)
     << ",\"faults\":" << faults.to_json()
     << ",\"submit_s\":" << jnum(submit_s) << ",\"start_s\":" << jnum(start_s)
     << ",\"finish_s\":" << jnum(finish_s)
     << ",\"queue_wait_s\":" << jnum(queue_wait_s)
     << ",\"latency_s\":" << jnum(latency_s) << ",\"stages\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"stage\":\"" << spans[i].stage << "\",\"resource\":\""
       << hh::to_string(spans[i].resource)
       << "\",\"start_s\":" << jnum(spans[i].start_s)
       << ",\"end_s\":" << jnum(spans[i].end_s) << "}";
  }
  os << "],\"run\":" << run.to_json() << "}";
  return os.str();
}

std::string BatchReport::to_string() const {
  std::ostringstream os;
  os << "batch: " << requests << " requests, makespan " << ms(makespan_s)
     << " (serial estimate " << ms(sequential_estimate_s) << ", "
     << (sequential_estimate_s > 0
             ? jnum(sequential_estimate_s / std::max(makespan_s, 1e-300))
             : "n/a")
     << "x)\n";
  os << "  latency p50 " << ms(p50_latency_s) << ", p95 " << ms(p95_latency_s)
     << ", p99 " << ms(p99_latency_s) << "\n";
  os << "  outcome: " << completed << " completed, " << degraded
     << " degraded to CPU, " << deadline_missed << " deadline-missed, "
     << shed << " shed\n";
  os << "  faults: gpu " << faults.gpu_aborts << ", h2d " << faults.h2d_faults
     << ", d2h " << faults.d2h_faults << " (" << faults.corruptions
     << " corrupt), cpu stalls " << faults.cpu_stalls << "; retries "
     << faults.retries << ", backoff " << ms(faults.backoff_s)
     << (backoff_jitter ? " (decorrelated jitter)" : "") << "\n";
  os << "  busy: cpu " << ms(cpu_busy_s) << ", gpu " << ms(gpu_busy_s)
     << ", h2d " << ms(h2d_busy_s) << ", d2h " << ms(d2h_busy_s) << "\n";
  os << "  plan cache: " << plan_cache.hits << " hits, " << plan_cache.misses
     << " misses, " << plan_cache.evictions << " evictions, "
     << plan_cache.overwrites << " overwrites, " << plan_cache.quarantines
     << " quarantines\n";
  os << "  workspace pool: " << workspace.spa_reuses << "/"
     << workspace.spa_acquires << " SPA reuses, " << workspace.coo_reuses
     << "/" << workspace.coo_acquires << " tuple-buffer reuses\n";
  os << "  waves: " << wave.waves << " over " << wave.wave_requests
     << " requests; " << wave.uploads << " uploads ("
     << wave.coalesced_uploads << " coalesced, " << wave.deduped_uploads
     << " deduped, " << wave.h2d_bytes << " bytes), "
     << wave.batched_launches << " batched launches, " << wave.evictions
     << " evictions\n";
  os << "  critpath: " << critpath.to_string() << "\n";
  if (!flame.empty()) os << "  schedule (glyph = request id, '.' = idle):\n"
                         << flame;
  return os.str();
}

std::string BatchReport::to_json() const {
  std::ostringstream os;
  os << "{\"requests\":" << requests << ",\"completed\":" << completed
     << ",\"degraded\":" << degraded
     << ",\"deadline_missed\":" << deadline_missed << ",\"shed\":" << shed
     << ",\"faults\":" << faults.to_json()
     << ",\"backoff_jitter\":" << jbool(backoff_jitter)
     << ",\"makespan_s\":" << jnum(makespan_s)
     << ",\"sequential_estimate_s\":" << jnum(sequential_estimate_s)
     << ",\"p50_latency_s\":" << jnum(p50_latency_s)
     << ",\"p95_latency_s\":" << jnum(p95_latency_s)
     << ",\"p99_latency_s\":" << jnum(p99_latency_s)
     << ",\"cpu_busy_s\":" << jnum(cpu_busy_s)
     << ",\"gpu_busy_s\":" << jnum(gpu_busy_s)
     << ",\"h2d_busy_s\":" << jnum(h2d_busy_s)
     << ",\"d2h_busy_s\":" << jnum(d2h_busy_s) << ",\"plan_cache\":{\"hits\":"
     << plan_cache.hits << ",\"misses\":" << plan_cache.misses
     << ",\"evictions\":" << plan_cache.evictions
     << ",\"overwrites\":" << plan_cache.overwrites
     << ",\"quarantines\":" << plan_cache.quarantines
     << "},\"workspace\":{\"spa_acquires\":" << workspace.spa_acquires
     << ",\"spa_reuses\":" << workspace.spa_reuses
     << ",\"coo_acquires\":" << workspace.coo_acquires
     << ",\"coo_reuses\":" << workspace.coo_reuses << "}"
     << ",\"wave\":" << wave.to_json()
     << ",\"critpath\":" << critpath.to_json();
  os << "}";
  return os.str();
}

SpgemmService::SpgemmService(const HeteroPlatform& platform, ThreadPool& pool,
                             Config config)
    : platform_(platform),
      pool_(pool),
      config_(config),
      plan_cache_(config.plan_cache_capacity),
      injector_(config.fault_plan),
      tuner_(config.tune),
      calib_(config.tune.calibration),
      jitter_rng_(config.recovery.jitter_seed) {
  plan_cache_.bind_metrics(&metrics_);
}

TuneReport SpgemmService::tune_report() const {
  TuneReport r = tuner_.report();
  r.enabled = config_.tune.enabled;
  r.drift_events = calib_.drift_events();
  r.calibration.reserve(CalibrationStore::kDevices);
  for (int i = 0; i < CalibrationStore::kDevices; ++i) {
    const auto d = static_cast<CalibrationStore::Device>(i);
    const CalibrationStore::DeviceState& s = calib_.state(d);
    r.calibration.push_back({CalibrationStore::name(d), s.samples,
                             std::exp(s.mean_log_ratio),
                             calib_.correction(d), s.drift});
  }
  return r;
}

void validate_spgemm_request(const SpgemmRequest& request) {
  if (request.a == nullptr) {
    throw InvalidArgumentError("request needs an A operand");
  }
  const CsrMatrix& a = *request.a;
  const CsrMatrix& b = request.b != nullptr ? *request.b : a;
  auto check_operand = [](const CsrMatrix& m, const char* side) {
    if (m.rows <= 0 || m.cols <= 0) {
      std::ostringstream os;
      os << side << " operand is empty (" << m.rows << "x" << m.cols << ")";
      throw InvalidArgumentError(os.str());
    }
    // Cheap structural sanity (O(1)); full validate() is the caller's job.
    if (m.indptr.size() != static_cast<std::size_t>(m.rows) + 1 ||
        m.indptr.back() != static_cast<offset_t>(m.indices.size()) ||
        m.indices.size() != m.values.size()) {
      std::ostringstream os;
      os << side << " operand has inconsistent CSR arrays";
      throw InvalidArgumentError(os.str());
    }
  };
  check_operand(a, "A");
  if (request.b != nullptr) check_operand(b, "B");
  if (a.cols != b.rows) {
    std::ostringstream os;
    os << "incompatible shapes for product: A is " << a.rows << "x" << a.cols
       << ", B is " << b.rows << "x" << b.cols;
    throw InvalidArgumentError(os.str());
  }
  if (request.options.threshold_a < 0 || request.options.threshold_b < 0) {
    throw InvalidArgumentError("thresholds must be >= 0 (0 = analytic pick)");
  }
  if (request.options.queue.cpu_rows < 0 || request.options.queue.gpu_rows < 0) {
    throw InvalidArgumentError("queue unit sizes must be >= 0 (0 = auto)");
  }
  if (request.options.queue.cpu_dequeue_s < 0 ||
      request.options.queue.gpu_dequeue_s < 0) {
    throw InvalidArgumentError("queue dequeue costs must be >= 0");
  }
  if (request.deadline_s < 0) {
    throw InvalidArgumentError("deadline must be >= 0 (0 = service default)");
  }
}

std::size_t SpgemmService::submit(SpgemmRequest request) {
  validate_spgemm_request(request);
  if (config_.admission_capacity > 0 &&
      queue_.size() >= config_.admission_capacity) {
    metrics_.counter("service.shed").inc();
    std::ostringstream os;
    os << "admission queue full (" << queue_.size() << "/"
       << config_.admission_capacity << "), request shed";
    throw AdmissionError(os.str());
  }
  queue_.push_back(std::move(request));
  return next_id_++;
}

void SpgemmService::invalidate_inputs() {
  signatures_.clear();
  resident_.clear();
}

const MatrixSignature& SpgemmService::signature_of(const CsrMatrix* m) {
  auto it = signatures_.find(m);
  if (it == signatures_.end()) {
    it = signatures_.emplace(m, matrix_signature(*m)).first;
  }
  return it->second;
}

BatchResult SpgemmService::drain() {
  BatchResult out;
  out.results.reserve(queue_.size());
  out.requests.reserve(queue_.size());

  // Fresh timelines per drain: the batch clock starts at 0. When a recorder
  // is attached and enabled, every placement the timelines make is traced;
  // `tr` is nullptr otherwise so instrumentation below is one branch.
  TraceRecorder* tr = config_.trace != nullptr && config_.trace->enabled()
                          ? config_.trace
                          : nullptr;
  ResourceTimeline cpu(Resource::kCpu, tr);
  ResourceTimeline gpu(Resource::kGpu, tr);
  ResourceTimeline h2d(Resource::kH2D, tr);
  ResourceTimeline d2h(Resource::kD2H, tr);
  // Placement provenance for the critical-path profiler (obs/critpath.hpp):
  // every positive-duration reservation below lands in `plog` with the
  // request/wave context current at reservation time — the same scopes that
  // set trace identity, but independent of tracing.
  PlacementLog plog;
  for (ResourceTimeline* tl : {&cpu, &gpu, &h2d, &d2h}) {
    tl->attach_placements(&plog);
  }
  WorkspacePool* ws = config_.use_workspace_pool ? &workspace_ : nullptr;
  FaultInjector* fi = config_.fault_plan.enabled() ? &injector_ : nullptr;
  const RecoveryPolicy& rp = config_.recovery;
  const std::size_t first_id = next_id_ - queue_.size();

  std::vector<double> latencies;
  latencies.reserve(queue_.size());
  double makespan = 0;
  double seq_estimate = 0;

  // The one retry loop: run a device op until an attempt succeeds, the
  // deadline passes (`expired`), or the budget's failures reach its limit.
  // A failed attempt bumps the op's fault counter and trace instant; a
  // corrupt one also counts a corruption. A retry waits out one backoff —
  // the geometric ladder over the failure count, or decorrelated jitter
  // carried in the budget's prev_backoff_s. `attempt(n)` performs attempt
  // n (0 = the first try).
  const auto run_device_op = [&](const DeviceOpSpec& spec,
                                 ResourceTimeline& tl, double earliest,
                                 const RetryBudget& b, auto&& attempt,
                                 auto&& expired) -> OpResult {
    int n = 0;
    for (;;) {
      const DeviceAttempt at = attempt(n++);
      const StageSpan s = tl.reserve(at.ok        ? spec.ok_span
                                     : at.corrupt ? spec.corrupt_span
                                                  : spec.fault_span,
                                     earliest, at.elapsed_s);
      b.spans.push_back(s);
      if (b.elapsed_s != nullptr) *b.elapsed_s += at.elapsed_s;
      if (at.ok) return {s, OpOutcome::kOk};
      int& faults = b.stats.*spec.fault_counter;
      ++faults;
      if (tr != nullptr) {
        tr->instant_on(TraceCategory::kFault,
                       at.corrupt ? spec.corrupt_instant : spec.fault_instant,
                       s.resource, s.end_s, at.op);
      }
      if (at.corrupt) b.stats.corruptions++;
      if (b.failures != nullptr) ++*b.failures;
      const int failed = b.failures != nullptr ? *b.failures : faults;
      if (expired(s.end_s)) return {s, OpOutcome::kCancelled};
      if (failed >= b.limit) return {s, OpOutcome::kExhausted};
      b.stats.retries++;
      if (tr != nullptr) {
        tr->instant_on(TraceCategory::kRetry, spec.retry_instant, s.resource,
                       s.end_s, at.op);
      }
      double wait;
      if (!rp.decorrelated_jitter) {
        wait = rp.backoff_base_s *
               std::pow(rp.backoff_multiplier, failed - 1);
      } else {
        const double u = jitter_rng_.uniform();
        wait = rp.backoff_base_s +
               u * (3.0 * b.prev_backoff_s - rp.backoff_base_s);
        if (rp.backoff_cap_s > 0 && wait > rp.backoff_cap_s) {
          wait = rp.backoff_cap_s;
        }
        b.prev_backoff_s = wait;
      }
      b.stats.backoff_s += wait;
      earliest = s.end_s + wait;
    }
  };
  const auto no_deadline = [](double) { return false; };

  // ---- Wave formation (Config::wave, runtime/wave.hpp): group the queue,
  // in submit order, into waves of requests that share operands. Operands
  // are identified by pointer, as residency is (see submit()). With the
  // executor off every request is a wave of one.
  std::vector<WaveBounds> wave_bounds;
  {
    std::unordered_map<const CsrMatrix*, std::uint32_t> dense_ids;
    const auto id_of = [&](const CsrMatrix* m) {
      return dense_ids
          .emplace(m, static_cast<std::uint32_t>(dense_ids.size()))
          .first->second;
    };
    std::vector<std::array<std::uint32_t, 2>> operand_ids;
    operand_ids.reserve(queue_.size());
    for (const SpgemmRequest& wr : queue_) {
      operand_ids.push_back(
          {id_of(wr.a), id_of(wr.b != nullptr ? wr.b : wr.a)});
    }
    wave_bounds = form_waves(
        operand_ids, config_.wave.enabled ? config_.wave.max_requests : 1,
        config_.wave.max_operands);
  }
  WaveStats wstats;

  // Per-wave operand table: distinct operands in first-use order, each with
  // its refcount over the wave's requests, its upload outcome, and the
  // spans/faults attributed to its first user.
  struct WaveOperand {
    const CsrMatrix* m = nullptr;
    std::size_t first_req = 0;  // queue index of the first user
    int refs = 0;               // users among the wave's requests
    double ready_s = 0;         // device copy usable from here on
    double attributed_s = 0;    // upload time charged to first_req
    double failed_at = 0;
    bool failed = false;  // retries exhausted: every user degrades
    std::vector<StageSpan> spans;
    FaultRecoveryStats faults;
  };
  std::vector<WaveOperand> wave_ops;
  std::unordered_map<const CsrMatrix*, std::size_t> wave_op_index;
  bool wave_gpu_lead_done = false;  // first healthy launch pays the overhead
  std::size_t wave_idx = 0;

  // Wave preamble: collect the wave's distinct operands, refcount their
  // users, and upload each one exactly once. The happy path (every first
  // attempt healthy) coalesces the uploads into one contiguous H2D block
  // placed from ResourceTimeline::block_start — the lead transfer pays the
  // link latency, followers stream back-to-back behind it (device/pcie.hpp
  // batched costing). Under faults the pending operands fall back to
  // per-operand retries with full-latency costing. Spans and fault
  // counters are attributed to each operand's first user.
  const auto begin_wave = [&](const WaveBounds& wb) {
    wave_ops.clear();
    wave_op_index.clear();
    wave_gpu_lead_done = false;
    wstats.waves++;
    wstats.wave_requests += static_cast<std::int64_t>(wb.end - wb.begin);
    if (tr != nullptr) {
      tr->instant(TraceCategory::kWave, "wave-begin",
                  std::max({cpu.now(), gpu.now(), h2d.now(), d2h.now()}));
    }
    for (std::size_t r = wb.begin; r < wb.end; ++r) {
      if (queue_[r].options.matrices_already_on_gpu) continue;
      for (const CsrMatrix* m : operands_of(queue_[r])) {
        if (m == nullptr) continue;
        const auto [it, fresh] = wave_op_index.emplace(m, wave_ops.size());
        if (fresh) {
          WaveOperand op;
          op.m = m;
          op.first_req = r;
          wave_ops.push_back(std::move(op));
        }
        wave_ops[it->second].refs++;
      }
    }
    std::vector<std::size_t> pending;
    for (std::size_t k = 0; k < wave_ops.size(); ++k) {
      const auto rit = resident_.find(wave_ops[k].m);
      if (rit != resident_.end()) {
        rit->second += wave_ops[k].refs;  // already on device: reuse
      } else {
        pending.push_back(k);
      }
    }
    if (pending.empty()) return;
    const auto complete_upload = [&](WaveOperand& op, double ready) {
      op.ready_s = ready;
      resident_.emplace(op.m, op.refs);
      wstats.uploads++;
      wstats.deduped_uploads += op.refs - 1;
      wstats.h2d_bytes += static_cast<std::int64_t>(op.m->byte_size());
    };
    std::vector<DeviceAttempt> first;
    first.reserve(pending.size());
    bool any_fault = false;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      first.push_back(platform_.link().h2d().matrix_transfer_attempt(
          *wave_ops[pending[k]].m, fi, /*lead=*/k == 0));
      any_fault |= !first.back().ok;
    }
    if (!any_fault) {
      double total = 0;
      for (const DeviceAttempt& at : first) total += at.elapsed_s;
      double cursor = h2d.block_start(0.0, total);
      for (std::size_t k = 0; k < pending.size(); ++k) {
        WaveOperand& op = wave_ops[pending[k]];
        if (tr != nullptr) tr->begin_request(first_id + op.first_req);
        plog.begin_request(first_id + op.first_req);
        const StageSpan s =
            h2d.reserve("wave-h2d-input", cursor, first[k].elapsed_s);
        cursor = s.end_s;
        op.spans.push_back(s);
        op.attributed_s = first[k].elapsed_s;
        complete_upload(op, s.end_s);
        if (k > 0) wstats.coalesced_uploads++;
      }
      plog.end_request();
      if (tr != nullptr) {
        tr->end_request();
        tr->instant_on(TraceCategory::kWave, "wave-h2d-coalesced",
                       Resource::kH2D, cursor);
      }
      return;
    }
    // Fault fallback: sequential per-operand retries. Every attempt after
    // the first re-arbitrates the link, so it pays lead (full-latency)
    // costing. A corrupt attempt is re-sent like a failed one; the damaged
    // copy never becomes resident, as only a clean upload is recorded.
    double chain = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      WaveOperand& op = wave_ops[pending[k]];
      if (tr != nullptr) tr->begin_request(first_id + op.first_req);
      plog.begin_request(first_id + op.first_req);
      double prev_backoff_s = rp.backoff_base_s;
      int failures = 0;
      const OpResult r = run_device_op(
          kWaveUpload, h2d, chain,
          RetryBudget{op.faults, op.spans, &op.attributed_s, &failures,
                      rp.max_attempts, prev_backoff_s},
          [&](int n) {
            return n == 0 ? first[k]
                          : platform_.link().h2d().matrix_transfer_attempt(
                                *op.m, fi);
          },
          no_deadline);
      chain = r.last.end_s;
      if (r.outcome == OpOutcome::kOk) {
        complete_upload(op, r.last.end_s);
      } else {
        op.failed = true;
        op.failed_at = r.last.end_s;
      }
    }
    if (tr != nullptr) tr->end_request();
    plog.end_request();
  };

  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (wave_idx < wave_bounds.size() && i == wave_bounds[wave_idx].begin) {
      // Placements from here to the next wave boundary (the preamble uploads
      // and every member request's stages) carry this wave's index.
      plog.set_wave(static_cast<int>(wave_idx));
      begin_wave(wave_bounds[wave_idx]);
      ++wave_idx;
    }
    const SpgemmRequest& req = queue_[i];
    const CsrMatrix& a = *req.a;
    const CsrMatrix& b = req.b != nullptr ? *req.b : a;
    const CsrMatrix* pb = req.b != nullptr ? req.b : req.a;

    RequestReport rr;
    rr.request_id = first_id + i;
    if (tr != nullptr) tr->begin_request(rr.request_id);
    plog.begin_request(rr.request_id);
    rr.label = req.label;
    rr.submit_s = 0;
    rr.deadline_s =
        req.deadline_s > 0 ? req.deadline_s : config_.default_deadline_s;
    RunReport& rep = rr.run;
    rep.algorithm = "HH-CPU (pipelined)";

    bool cancelled = false;
    bool degraded = false;
    double degrade_at = 0;  // clock where the degrade decision landed

    const auto past_deadline = [&](double t) {
      return rr.deadline_s > 0 && t - rr.submit_s > rr.deadline_s + 1e-15;
    };
    // Decorrelated jitter carries the previous wait forward within one
    // request; the geometric ladder is a pure function of the failure count.
    double prev_backoff_s = rp.backoff_base_s;
    // Both GPU phases draw on one request-wide abort budget.
    const RetryBudget gpu_budget{rr.faults, rr.spans, nullptr, nullptr,
                                 rp.gpu_failures_before_degrade,
                                 prev_backoff_s};
    const auto degrade = [&](double t) {
      degraded = true;
      degrade_at = std::max(degrade_at, t);
      if (tr != nullptr) {
        tr->instant(TraceCategory::kDegrade, "degrade-to-cpu", t);
      }
    };
    // Fold a retried op's outcome into the request: a spent budget degrades
    // it; a deadline passed during or at the end of the op cancels it.
    const auto settle = [&](const OpResult& r) {
      if (r.outcome == OpOutcome::kExhausted) {
        degrade(r.last.end_s);
      } else if (r.outcome == OpOutcome::kCancelled ||
                 past_deadline(r.last.end_s)) {
        cancelled = true;
      }
    };
    // A CPU stage's duration plus any injected worker stall (stalls delay,
    // never fail). Zero-duration stages consume no injector op so the fault
    // schedule is stable across degenerate partitions. The stall is decided
    // before the stage is placed, so its trace instant is deferred until the
    // placed span is known — call note_stall(span) after the reserve.
    double pending_stall_s = 0;
    std::uint64_t pending_stall_op = kNoDeviceOp;
    const auto stalled = [&](double base) {
      pending_stall_s = 0;
      pending_stall_op = kNoDeviceOp;
      if (base <= 0) return base;
      const DeviceAttempt at = platform_.cpu().stall_attempt(fi);
      if (at.elapsed_s > 0) {
        rr.faults.cpu_stalls++;
        pending_stall_s = at.elapsed_s;
        pending_stall_op = at.op;
      }
      return base + at.elapsed_s;
    };
    const auto note_stall = [&](const StageSpan& s) {
      if (pending_stall_s > 0 && tr != nullptr) {
        tr->instant_on(TraceCategory::kFault, "cpu-stall", Resource::kCpu,
                       s.end_s, pending_stall_op);
      }
      pending_stall_s = 0;
    };

    // ---- Phase I: plan, through the cache when thresholds are not pinned.
    offset_t t_a = req.options.threshold_a;
    offset_t t_b = req.options.threshold_b;
    const bool cacheable = t_a <= 0 || t_b <= 0;
    // The autotuner engages only for fully-unpinned requests: a pinned
    // threshold is the caller's explicit choice, never second-guessed.
    const bool tunable = config_.tune.enabled && t_a <= 0 && t_b <= 0;
    offset_t tuned_t = 0;  // the variant this request measures (0 = none)
    PlanKey cache_key;
    if (cacheable) {
      cache_key = PlanKey{signature_of(req.a), signature_of(pb)};
      if (const auto cached = plan_cache_.lookup(cache_key)) {
        t_a = cached->threshold_a;
        t_b = cached->threshold_b;
        rr.plan_cache_hit = true;
        if (tunable) {
          if (!tuner_.has_entry(cache_key)) {
            // Plan cached before tuning was enabled: one sweep adopts it.
            tuner_.admit(cache_key, sweep_thresholds(a, b, platform_,
                                                     calib_.corrections()));
          }
          const ThresholdTuner::Decision d = tuner_.decide(cache_key);
          metrics_.counter("tune.decisions").inc();
          tuned_t = d.t;
          t_a = t_b = d.t;
          if (d.explore) {
            metrics_.counter("tune.explorations").inc();
            if (tr != nullptr) {
              tr->instant(TraceCategory::kTune, "tune-explore", rr.submit_s);
            }
          }
        }
      }
    }
    if (cacheable && tr != nullptr) {
      tr->instant(TraceCategory::kScheduler,
                  rr.plan_cache_hit ? "plan-cache-hit" : "plan-cache-miss",
                  rr.submit_s);
    }
    if (tunable && !rr.plan_cache_hit) {
      // Cold signature pair: run the analytic sweep once (with the current
      // calibration corrections), remember the full ranking for later
      // exploration, and serve its best. With an uncalibrated store this is
      // exactly the pick make_partition_plan would have made on its own.
      tuner_.admit(cache_key,
                   sweep_thresholds(a, b, platform_, calib_.corrections()));
      t_a = t_b = tuner_.incumbent(cache_key);
      tuned_t = t_a;
    }
    const PartitionPlan plan = make_partition_plan(a, b, t_a, t_b, platform_);
    if (cacheable && !rr.plan_cache_hit) {
      CachedPlan fresh;
      fresh.threshold_a = plan.a.threshold;
      fresh.threshold_b = plan.b.threshold;
      plan_cache_.insert(cache_key, fresh);
    }
    rep.threshold_a = plan.a.threshold;
    rep.threshold_b = plan.b.threshold;
    rep.high_rows_a = plan.a.high_count();
    rep.high_rows_b = plan.b.high_count();

    // A cache hit skips the identification pass but still classifies.
    rep.phase1_s = rr.plan_cache_hit ? plan.classify_s : plan.phase1_s;
    const StageSpan analyze =
        cpu.reserve(rr.plan_cache_hit ? "analyze(cached-plan)" : "analyze",
                    rr.submit_s, stalled(rep.phase1_s));
    note_stall(analyze);
    rr.spans.push_back(analyze);
    if (past_deadline(analyze.end_s)) cancelled = true;

    // ---- Input transfer: the wave preamble already uploaded every operand
    // that was not resident. Collect this request's readiness gate, take the
    // upload spans and faults of the operands it is the first user of, and
    // degrade it if an operand's upload retries were exhausted (the CPU-only
    // path needs no GPU and no PCIe).
    const bool on_gpu = req.options.matrices_already_on_gpu;
    double tx_in_total = 0;
    // When this request's operands are all usable on the device (uploads
    // done, or nothing to ship). Gates the GPU-side stages below.
    double tx_gate = rr.submit_s;
    if (!on_gpu) {
      for (const CsrMatrix* m : operands_of(req)) {
        if (m == nullptr) continue;
        const WaveOperand& op = wave_ops[wave_op_index.at(m)];
        tx_gate = std::max(tx_gate, op.ready_s);
        if (op.first_req == i) {
          for (const StageSpan& s : op.spans) rr.spans.push_back(s);
          rr.faults.accumulate(op.faults);
          tx_in_total += op.attributed_s;
        }
        if (op.failed && !degraded) degrade(op.failed_at);
      }
      if (!cancelled && past_deadline(tx_gate)) cancelled = true;
    }
    rr.inputs_resident = tx_in_total == 0;
    rep.transfer_in_s = tx_in_total;

    // ---- Phase II numerics + scheduling. The numeric work always executes
    // host-side with the same decomposition, so retries and degradation
    // cannot change the output bits.
    Phase2Result p2;
    bool p2_live = false;
    WorkQueueResult q;
    MergeResult merged;
    bool have_output = false;
    StageSpan cpu2{}, gpu2{}, q_cpu{}, tx_out{}, deg{}, merge{};

    if (!cancelled) {
      p2 = run_phase2(a, b, plan, platform_, pool_, ws);
      p2_live = true;
      rep.phase2_cpu_s = p2.cpu_s;
      rep.phase2_gpu_s = p2.gpu_s;
      rep.phase2_s = HeteroPlatform::overlap(p2.cpu_s, p2.gpu_s);
      cpu2 = cpu.reserve("phase2-cpu", analyze.end_s, stalled(p2.cpu_s));
      note_stall(cpu2);
      rr.spans.push_back(cpu2);
      if (past_deadline(cpu2.end_s)) cancelled = true;

      // GPU side of Phase II: re-launch on transient aborts, degrade after
      // the request's N-th GPU failure.
      gpu2 = StageSpan{"phase2-gpu", Resource::kGpu, analyze.end_s,
                       analyze.end_s};
      if (!cancelled && !degraded && p2.gpu_s > 0) {
        // The wave's first healthy Phase II launch is the lead and pays
        // the kernel-launch overhead; same-wave followers skip it (batched
        // costing). rep.phase2_* stay the model times from run_phase2, so
        // tuner feedback does not depend on the wave shape.
        const bool lead = !wave_gpu_lead_done;
        const OpResult r = run_device_op(
            kPhase2Gpu, gpu, std::max(analyze.end_s, tx_gate), gpu_budget,
            [&](int) {
              return platform_.gpu().kernel_attempt(p2.ll_stats, fi, lead);
            },
            past_deadline);
        if (r.outcome == OpOutcome::kOk) {
          gpu2 = r.last;
          if (gpu2.duration_s() > 0) {
            if (wave_gpu_lead_done) wstats.batched_launches++;
            wave_gpu_lead_done = true;
          }
        }
        settle(r);
      }
    }

    // ---- Phase III: the double-ended queue occupies both devices from
    // their current frontiers. A degraded request re-plans the queue with
    // the GPU never joining: every unit runs on the CPU end — the CPU-only
    // Gustavson path — and the tuple stream (hence the output) is unchanged.
    bool q_ran = false;
    if (!cancelled) {
      const double cpu_q_start =
          std::max({cpu.now(), analyze.end_s, cpu2.end_s});
      const double gpu_q_start =
          degraded ? kGpuNeverJoins
                   : std::max({gpu.now(), analyze.end_s, tx_gate,
                               gpu2.end_s});
      q = run_phase3(a, b, plan, req.options.queue, cpu_q_start, gpu_q_start,
                     platform_, pool_, ws);
      q_ran = true;
      rep.phase3_cpu_s = q.cpu_busy;
      rep.phase3_gpu_s = q.gpu_busy;
      rep.phase3_s = HeteroPlatform::overlap(q.cpu_busy, q.gpu_busy);
      rep.queue_cpu_units = q.cpu_units;
      rep.queue_gpu_units = q.gpu_units;
      q_cpu = cpu.reserve("phase3-cpu", cpu_q_start, stalled(q.cpu_busy));
      note_stall(q_cpu);
      rr.spans.push_back(q_cpu);
      if (past_deadline(q_cpu.end_s)) cancelled = true;

      StageSpan q_gpu{"phase3-gpu", Resource::kGpu, gpu2.end_s, gpu2.end_s};
      if (!cancelled && !degraded && q.gpu_busy > 0) {
        const OpResult r = run_device_op(
            kPhase3Gpu, gpu, gpu_q_start, gpu_budget,
            [&](int) {
              // The queue's GPU share executes as one fault domain: an abort
              // re-runs the whole share (its units were a single stream of
              // back-to-back launches feeding one tuple buffer).
              DeviceAttempt at =
                  platform_.gpu().kernel_attempt(q.gpu_stats, fi);
              if (at.ok) at.elapsed_s = q.gpu_busy;
              return at;
            },
            past_deadline);
        if (r.outcome == OpOutcome::kOk) q_gpu = r.last;
        settle(r);
      }

      // ---- D2H shipment of the GPU tuples (skipped when degraded: the CPU
      // recomputes the GPU share locally, nothing crosses the link).
      if (!cancelled && !degraded) {
        const std::int64_t gpu_tuples =
            p2.ll_stats.tuples + q.gpu_stats.tuples;
        if (gpu_tuples > 0) {
          int failures = 0;
          const OpResult r = run_device_op(
              kDownload, d2h, std::max(gpu2.end_s, q_gpu.end_s),
              RetryBudget{rr.faults, rr.spans, &rep.transfer_out_s, &failures,
                          rp.max_attempts, prev_backoff_s},
              [&](int) {
                return platform_.link().d2h().tuple_transfer_attempt(
                    gpu_tuples, fi);
              },
              past_deadline);
          if (r.outcome == OpOutcome::kOk) tx_out = r.last;
          settle(r);
        }
      }

      // ---- Degraded re-plan: the CPU redoes the GPU's share (Phase II
      // A_L×B_L and whatever the queue had assigned to the GPU) with its
      // own cost model. Numerically this is the same host-side Gustavson
      // work that produced the tuples, so the output bits are unchanged.
      if (!cancelled && degraded) {
        const double extra =
            platform_.cpu().kernel_time(p2.ll_stats, plan.ws_bl_bytes,
                                        /*rewritten=*/true,
                                        /*blockable=*/false) +
            platform_.cpu().kernel_time(q.gpu_stats, plan.ws_bl_bytes,
                                        /*rewritten=*/true,
                                        /*blockable=*/false);
        if (extra > 0) {
          deg = cpu.reserve("degraded-cpu-replan",
                            std::max({q_cpu.end_s, cpu2.end_s, degrade_at}),
                            extra);
          rr.spans.push_back(deg);
          if (past_deadline(deg.end_s)) cancelled = true;
        }
      }
    }

    rep.flops = p2.hh_stats.flops + p2.ll_stats.flops + q.cpu_stats.flops +
                q.gpu_stats.flops;
    const double seq_tx_in =
        platform_.link().h2d().matrix_transfer_time(a) +
        (&b != &a ? platform_.link().h2d().matrix_transfer_time(b) : 0.0);

    // ---- Phase IV merge (consumes the tuple buffers, releasing pooled
    // ones, so it runs whenever Phase III did — even for a request that is
    // already past its deadline, so cancellation never leaks a pooled
    // buffer). A request cancelled before Phase III releases the Phase II
    // buffers directly.
    if (p2_live && !q_ran) {
      release_runs(ws, std::move(p2.hh_tuples));
      release_runs(ws, std::move(p2.ll_tuples));
      p2_live = false;
    } else if (p2_live) {
      merged = run_phase4(std::move(p2), std::move(q), platform_, pool_, ws);
      p2_live = false;
      rep.merge = merged.merge;
      rep.phase4_s = merged.cpu_s;
      if (!cancelled) {
        merge = cpu.reserve(
            "merge",
            std::max({q_cpu.end_s, tx_out.end_s, deg.end_s, cpu2.end_s}),
            stalled(merged.cpu_s));
        note_stall(merge);
        rr.spans.push_back(merge);
        if (past_deadline(merge.end_s)) {
          cancelled = true;
        } else {
          have_output = true;
        }
      }
    }

    // ---- Request accounting.
    std::erase_if(rr.spans,
                  [](const StageSpan& s) { return s.duration_s() <= 0; });
    rr.start_s = rr.submit_s;
    rr.finish_s = rr.submit_s;
    for (std::size_t k = 0; k < rr.spans.size(); ++k) {
      rr.start_s = k == 0 ? rr.spans[k].start_s
                          : std::min(rr.start_s, rr.spans[k].start_s);
      rr.finish_s = std::max(rr.finish_s, rr.spans[k].end_s);
    }
    rr.queue_wait_s = rr.start_s - rr.submit_s;
    rr.latency_s = rr.finish_s - rr.submit_s;
    rr.degraded_to_cpu = degraded;
    if (cancelled) {
      rr.deadline_missed = true;
      std::ostringstream os;
      os << "deadline of " << rr.deadline_s << " s exceeded at "
         << rr.finish_s << " s; request cancelled";
      rr.status = Status{StatusCode::kDeadlineExceeded, os.str()};
      if (tr != nullptr) {
        tr->instant(TraceCategory::kCancel, "deadline-cancel", rr.finish_s);
      }
      // The plan this request rode on is suspect until re-identified.
      if (cacheable && rr.plan_cache_hit) plan_cache_.quarantine(cache_key);
    }
    rep.output_nnz = have_output ? merged.c.nnz() : 0;
    rep.total_s = rr.latency_s;

    // ---- Feed the tuner: only clean requests observe. A faulted, degraded
    // or cancelled request's timings measure the fault plan, not the plan
    // quality, and would poison both the variant table and the calibration.
    if (tunable && tuned_t > 0 && !cancelled && !degraded &&
        rr.faults.total_faults() == 0) {
      // What the threshold choice actually controls: compute + merge +
      // output shipment. Queue wait and input transfer are workload state.
      const double measured =
          rep.phase2_s + rep.phase3_s + rep.phase4_s + rep.transfer_out_s;
      metrics_.counter("tune.measurements").inc();
      if (const auto promo = tuner_.observe(cache_key, tuned_t, measured)) {
        CachedPlan promoted;
        promoted.threshold_a = promo->to_t;
        promoted.threshold_b = promo->to_t;
        promoted.version = promo->version;
        promoted.measured_s = promo->to_best_s;
        plan_cache_.insert(cache_key, promoted);
        metrics_.counter("tune.promotions").inc();
        if (tr != nullptr) {
          tr->instant(TraceCategory::kTune, "tune-promote", rr.finish_s);
        }
      }
      // Calibrate the cost model against this request's observed stage
      // times (per device; transfers only when bytes actually moved).
      const PredictedBreakdown pred =
          predict_breakdown(a, b, tuned_t, platform_);
      const double obs_cpu = rep.phase2_cpu_s + rep.phase3_cpu_s + rep.phase4_s;
      const double obs_gpu = rep.phase2_gpu_s + rep.phase3_gpu_s;
      bool drift = false;
      drift |= calib_.record(CalibrationStore::Device::kCpu, pred.cpu_s,
                             obs_cpu);
      drift |= calib_.record(CalibrationStore::Device::kGpu, pred.gpu_s,
                             obs_gpu);
      if (rep.transfer_in_s > 0) {
        drift |= calib_.record(CalibrationStore::Device::kH2D, pred.h2d_s,
                               rep.transfer_in_s);
      }
      if (rep.transfer_out_s > 0) {
        drift |= calib_.record(CalibrationStore::Device::kD2H, pred.d2h_s,
                               rep.transfer_out_s);
      }
      if (drift) {
        metrics_.counter("tune.drift_events").inc();
        if (tr != nullptr) {
          tr->instant(TraceCategory::kTune, "tune-drift", rr.finish_s);
        }
      }
    }

    makespan = std::max(makespan, rr.finish_s);
    latencies.push_back(rr.latency_s);

    // First-order cost of the same request under the serial driver: cold
    // transfers, cold identification, single-clock overlap accounting.
    const double seq_cpu_end = plan.phase1_s + rep.phase2_cpu_s + q.cpu_busy;
    const double seq_gpu_end =
        plan.phase1_s + seq_tx_in + rep.phase2_gpu_s + q.gpu_busy;
    seq_estimate += std::max(seq_cpu_end, seq_gpu_end) + rep.transfer_out_s +
                    rep.phase4_s;

    // ---- Flight recorder + SLO feed: the record carries everything the
    // replay harness needs to re-drive the request (signatures, arrival on
    // the recorder's accumulated clock, deadline, pinned thresholds) and to
    // judge the replay (outcome, chosen thresholds, stage totals).
    if (config_.recorder != nullptr) {
      WorkloadRecord w;
      w.id = rr.request_id;
      w.label = rr.label;
      w.a = signature_of(req.a);
      w.b = signature_of(pb);
      w.submit_s = config_.recorder->clock() + rr.submit_s;
      w.deadline_s = rr.deadline_s;
      w.pin_ta = req.options.threshold_a;
      w.pin_tb = req.options.threshold_b;
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
      config_.slo->observe(rr.latency_s, rr.status.ok(), rr.deadline_missed,
                           rr.finish_s);
    }

    // ---- Residency refcounts: this request no longer needs its operands.
    // With keep_inputs_resident == false the last user's finish evicts the
    // device copy — mid-wave, when an operand's users all sit early in the
    // wave.
    if (!on_gpu) {
      for (const CsrMatrix* m : operands_of(req)) {
        if (m == nullptr) continue;
        const auto rit = resident_.find(m);
        if (rit == resident_.end()) continue;
        if (--rit->second <= 0 && !config_.keep_inputs_resident) {
          resident_.erase(rit);
          wstats.evictions++;
          if (tr != nullptr) {
            tr->instant(TraceCategory::kWave, "wave-evict", rr.finish_s);
          }
        }
      }
    }

    RunResult res;
    if (have_output) res.c = std::move(merged.c);
    res.report = rep;
    out.results.push_back(std::move(res));
    out.requests.push_back(std::move(rr));
    if (tr != nullptr) tr->end_request();
    plog.end_request();
    if (tr != nullptr && i + 1 == wave_bounds[wave_idx - 1].end) {
      tr->instant(TraceCategory::kWave, "wave-end",
                  std::max({cpu.now(), gpu.now(), h2d.now(), d2h.now()}));
    }
  }
  queue_.clear();

  BatchReport& batch = out.batch;
  batch.requests = out.requests.size();
  batch.makespan_s = makespan;
  batch.sequential_estimate_s = seq_estimate;
  batch.p50_latency_s = percentile(latencies, 0.50);
  batch.p95_latency_s = percentile(latencies, 0.95);
  batch.p99_latency_s = percentile(latencies, 0.99);
  batch.cpu_busy_s = cpu.busy();
  batch.gpu_busy_s = gpu.busy();
  batch.h2d_busy_s = h2d.busy();
  batch.d2h_busy_s = d2h.busy();
  batch.plan_cache = plan_cache_.stats();
  batch.workspace = workspace_.stats();
  batch.backoff_jitter = rp.decorrelated_jitter;
  batch.wave = wstats;
  metrics_.counter("wave.waves").inc(wstats.waves);
  metrics_.counter("wave.requests").inc(wstats.wave_requests);
  metrics_.counter("wave.uploads").inc(wstats.uploads);
  metrics_.counter("wave.deduped_uploads").inc(wstats.deduped_uploads);
  metrics_.counter("wave.coalesced_uploads").inc(wstats.coalesced_uploads);
  metrics_.counter("wave.batched_launches").inc(wstats.batched_launches);
  metrics_.counter("wave.evictions").inc(wstats.evictions);
  metrics_.counter("wave.h2d_bytes").inc(wstats.h2d_bytes);

  // ---- Critical-path profile (obs/critpath.hpp): attribute the makespan.
  {
    // Invariant: the provenance log is attribution-complete — per resource,
    // the sum of logged placement durations equals the timeline's busy time
    // (both only ever grow by positive-duration reservations).
    const double busy[kResourceCount] = {cpu.busy(), gpu.busy(), h2d.busy(),
                                         d2h.busy()};
    for (int r = 0; r < kResourceCount; ++r) {
      const double attributed =
          plog.attributed_busy_s(static_cast<Resource>(r));
      HH_CHECK_MSG(std::abs(attributed - busy[r]) <=
                       1e-9 * std::max(1.0, busy[r]),
                   "placement log does not cover the timeline's busy time");
    }
    std::vector<CritPathRequestInfo> infos;
    infos.reserve(out.requests.size());
    for (const RequestReport& r : out.requests) {
      CritPathRequestInfo info;
      info.request_id = r.request_id;
      info.label = r.label;
      info.queue_wait_s = r.queue_wait_s;
      info.latency_s = r.latency_s;
      info.backoff_s = r.faults.backoff_s;
      infos.push_back(std::move(info));
    }
    batch.critpath = compute_critical_path(plog.placements(), makespan, infos);
    const CritPathReport& cp = batch.critpath;
    const double denom = std::max(cp.makespan_s, 1e-300);
    for (int r = 0; r < kResourceCount; ++r) {
      const char* lane = crit_lane_name(r);
      double queueing = 0;
      Histogram& qd = metrics_.histogram(
          std::string("critpath.queue_delay_s.") + lane, latency_buckets_s());
      for (const Placement& p : plog.placements()) {
        if (static_cast<int>(p.resource) != r) continue;
        const double delay = std::max(0.0, p.queue_delay_s());
        queueing += delay;
        qd.observe(delay);
      }
      metrics_.gauge(std::string("critpath.") + lane + ".busy_frac")
          .set(cp.makespan_s > 0 ? busy[r] / denom : 0.0);
      metrics_.gauge(std::string("critpath.") + lane + ".blocked_frac")
          .set(cp.makespan_s > 0 ? queueing / denom : 0.0);
      metrics_.gauge(std::string("critpath.") + lane + ".idle_frac")
          .set(cp.makespan_s > 0 ? 1.0 - busy[r] / denom : 0.0);
      metrics_.gauge(std::string("critpath.") + lane + ".crit_s")
          .set(cp.attributed_s[r]);
    }
    metrics_.gauge("critpath.idle.crit_s").set(cp.attributed_s[kIdleLane]);
    metrics_.gauge("critpath.bottleneck")
        .set(static_cast<double>(cp.bottleneck_lane()));
    if (tr != nullptr) {
      // One instant per chain step; the Perfetto exporter links them with
      // flow arrows so the critical chain reads as one thread of causality.
      for (const CritPathStep& s : cp.steps) {
        if (s.lane < kResourceCount) {
          tr->instant_on(TraceCategory::kCritPath, "crit-step",
                         static_cast<Resource>(s.lane), s.start_s);
        } else {
          tr->instant(TraceCategory::kCritPath, "crit-idle", s.start_s);
        }
      }
    }
  }

  const std::int64_t shed_total = metrics_.counter("service.shed").value();
  batch.shed = static_cast<std::size_t>(shed_total - shed_at_last_drain_);
  shed_at_last_drain_ = shed_total;

  Histogram& latency_hist =
      metrics_.histogram("service.latency_s", latency_buckets_s());
  for (RequestReport& r : out.requests) {
    batch.faults.accumulate(r.faults);
    if (r.status.ok()) batch.completed++;
    if (r.degraded_to_cpu) batch.degraded++;
    if (r.deadline_missed) batch.deadline_missed++;
    r.flame = flame_row(r.spans, 0, makespan);
    metrics_.counter("service.requests").inc();
    if (!r.deadline_missed) latency_hist.observe(r.latency_s);
  }
  metrics_.counter("service.completed").inc(
      static_cast<std::int64_t>(batch.completed));
  metrics_.counter("service.degraded").inc(
      static_cast<std::int64_t>(batch.degraded));
  metrics_.counter("service.deadline_missed").inc(
      static_cast<std::int64_t>(batch.deadline_missed));
  metrics_.counter("service.faults.gpu_aborts").inc(batch.faults.gpu_aborts);
  metrics_.counter("service.faults.h2d").inc(batch.faults.h2d_faults);
  metrics_.counter("service.faults.d2h").inc(batch.faults.d2h_faults);
  metrics_.counter("service.faults.corruptions").inc(batch.faults.corruptions);
  metrics_.counter("service.faults.cpu_stalls").inc(batch.faults.cpu_stalls);
  metrics_.counter("service.retries").inc(batch.faults.retries);
  metrics_.gauge("service.makespan_s").set(batch.makespan_s);
  metrics_.gauge("service.cpu_busy_s").set(batch.cpu_busy_s);
  metrics_.gauge("service.gpu_busy_s").set(batch.gpu_busy_s);
  metrics_.gauge("service.h2d_busy_s").set(batch.h2d_busy_s);
  metrics_.gauge("service.d2h_busy_s").set(batch.d2h_busy_s);
  if (config_.tune.enabled) {
    metrics_.gauge("tune.entries").set(static_cast<double>(tuner_.entries()));
    metrics_.gauge("tune.converged").set(
        static_cast<double>(tuner_.converged()));
    metrics_.gauge("tune.calibration.cpu")
        .set(calib_.correction(CalibrationStore::Device::kCpu));
    metrics_.gauge("tune.calibration.gpu")
        .set(calib_.correction(CalibrationStore::Device::kGpu));
    metrics_.gauge("tune.calibration.h2d")
        .set(calib_.correction(CalibrationStore::Device::kH2D));
    metrics_.gauge("tune.calibration.d2h")
        .set(calib_.correction(CalibrationStore::Device::kD2H));
  }

  // The batch flame is built from the per-request spans (not the recorder),
  // so the text view works even with tracing compiled out or disabled.
  std::vector<TraceEvent> flame_events;
  for (const RequestReport& r : out.requests) {
    for (const StageSpan& s : r.spans) {
      flame_events.push_back({TraceEventKind::kSpan, TraceCategory::kCompute,
                              s.stage, /*has_resource=*/true, s.resource,
                              r.request_id, s.start_s, s.end_s, s.start_s,
                              kNoDeviceOp});
    }
  }
  batch.flame = flame_view(flame_events);

  // Close the wave: the recorder's clock absorbs this drain's makespan so
  // the next drain's records arrive later on the accumulated clock.
  if (config_.recorder != nullptr) {
    config_.recorder->advance_clock(batch.makespan_s);
  }
  return out;
}

}  // namespace hh
