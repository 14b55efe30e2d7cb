// Pipelined service runtime vs. back-to-back run_hh_cpu calls.
//
// Part 1 — fault-free: submits a batch of Table-I analogue self-products
// (with repeats, so the plan cache and operand residency get exercised) to
// SpgemmService, then runs the identical batch serially through run_hh_cpu.
// Verifies every output is bit-identical to the serial path.
//
// Part 2 — under fault injection: a larger batch (HH_FAULT_REQUESTS,
// default 102) drains against a FaultPlan with transient GPU aborts and
// PCIe failures/corruption. Every request must survive — retried or
// degraded to the CPU-only path — with output bit-identical to the
// fault-free serial reference; the report shows throughput under faults
// next to the healthy throughput.
//
// Part 3 — online autotuning (src/tune/, docs/tuning.md): a fixed-seed
// 256-request batch (HH_TUNE_REQUESTS) over 8 distinct hot signature pairs
// (the three Table-I analogues plus five generated power-law matrices)
// drains twice on identical submissions — tuning off, then tuning on. The
// tuned run must not lose: makespan and p95 latency <= the untuned
// baseline, at least one signature promoted to a measured-better threshold,
// every output bit-identical to run_hh_cpu at the thresholds the service
// chose, and a same-seed replay bit-identical in outputs with a
// byte-identical TuneReport JSON.
//
// Part 4 — batched wave executor (docs/runtime.md): a repeated-operand
// batch (HH_WAVE_REQUESTS, default 256) over the three Table-I analogues
// drains wave-disabled then wave-enabled (both without sticky residency).
// The wave run must strictly beat the disabled run on makespan and H2D
// payload bytes, report at least one deduped upload, stay bit-identical to
// the serial reference per request, and replay byte-identically —
// BatchReport wave counters included.
//
//   ./bench_runtime_throughput            # scale via HH_SCALE (default 0.1)
//   HH_FAULT_GPU_RATE=0.3 HH_FAULT_PCIE_RATE=0.2 HH_FAULT_SEED=7
//   HH_FAULT_REQUESTS=200 ./bench_runtime_throughput   (env knobs)
//
// Prints one JSON object per part with the batch percentiles, makespans,
// and fault/recovery counters, and writes the combined machine-readable
// record — part1/part2/part3 plus tuned-vs-untuned deltas — to
// HH_BENCH_OUT (default BENCH_runtime.json).
// The faulted drain records a structured trace (unless HH_TRACE_OUT is set
// to an empty string) and exports it as Chrome trace-event / Perfetto JSON
// to HH_TRACE_OUT (default bench_runtime_trace.json) — load it at
// https://ui.perfetto.dev to see the four resource tracks, per-request flow
// arrows and fault/retry/degrade instants.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "gen/powerlaw_gen.hpp"
#include "obs/perf_baseline.hpp"
#include "runtime/service.hpp"
#include "trace/perfetto_export.hpp"
#include "util/format.hpp"

namespace {

bool bit_identical(const hh::CsrMatrix& x, const hh::CsrMatrix& y) {
  return x.rows == y.rows && x.cols == y.cols && x.indptr == y.indptr &&
         x.indices == y.indices && x.values == y.values;
}

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::atof(env);
    if (v >= 0) return v;
  }
  return fallback;
}

}  // namespace

int main() {
  using namespace hh;
  bench::print_header("runtime throughput: pipelined service vs serial calls");

  const double scale = bench::bench_scale();
  const HeteroPlatform platform = make_scaled_platform(scale);
  ThreadPool pool(0);

  // Three datasets, three rounds each: nine requests. Rounds 2 and 3 of a
  // dataset hit the plan cache and find their operands resident.
  const char* names[] = {"email-Enron", "wiki-Vote", "ca-CondMat"};
  std::vector<CsrMatrix> mats;
  mats.reserve(std::size(names));
  for (const char* name : names) {
    mats.push_back(load_or_make_dataset(dataset_spec(name), scale));
  }

  SpgemmService service(platform, pool);
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t m = 0; m < mats.size(); ++m) {
      SpgemmRequest req;
      req.a = &mats[m];
      req.label = std::string(names[m]) + "#" + std::to_string(round);
      service.submit(std::move(req));
      order.push_back(static_cast<int>(m));
    }
  }
  const BatchResult batch = service.drain();

  // The honest serial baseline: the same requests, cold, back to back.
  double serial_makespan = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const RunResult serial = run_hh_cpu(mats[static_cast<std::size_t>(
                                            order[i])],
                                        mats[static_cast<std::size_t>(
                                            order[i])],
                                        HhCpuOptions{}, platform, pool);
    serial_makespan += serial.report.total_s;
    if (!bit_identical(serial.c, batch.results[i].c)) {
      std::fprintf(stderr,
                   "FATAL: request %zu (%s) differs from the serial path\n",
                   i, batch.requests[i].label.c_str());
      return 1;
    }
  }

  std::printf("all %zu outputs bit-identical to the serial path\n\n",
              batch.results.size());
  std::printf("%s\n", batch.batch.to_string().c_str());
  std::printf("serial makespan (measured) %.3f ms, pipelined %.3f ms "
              "(%.2fx)\n\n",
              serial_makespan * 1e3, batch.batch.makespan_s * 1e3,
              serial_makespan / batch.batch.makespan_s);

  // Machine-readable record: batch + measured serial reference + requests.
  std::ostringstream part1;
  part1 << "{\"batch\":" << batch.batch.to_json()
        << ",\"serial_makespan_s\":" << jnum(serial_makespan)
        << ",\"requests\":[";
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    if (i > 0) part1 << ",";
    part1 << batch.requests[i].to_json();
  }
  part1 << "]}";
  std::printf("%s\n", part1.str().c_str());

  // ---- Part 2: the same service under fault injection (docs/robustness.md).
  const double gpu_rate = env_double("HH_FAULT_GPU_RATE", 0.25);
  const double pcie_rate = env_double("HH_FAULT_PCIE_RATE", 0.15);
  const std::size_t fault_requests = static_cast<std::size_t>(
      env_double("HH_FAULT_REQUESTS", 102));

  SpgemmService::Config cfg;
  cfg.fault_plan.seed =
      static_cast<std::uint64_t>(env_double("HH_FAULT_SEED", 42));
  cfg.fault_plan.gpu_kernel.rate = gpu_rate;
  cfg.fault_plan.h2d.rate = pcie_rate;
  cfg.fault_plan.d2h.rate = pcie_rate;
  cfg.fault_plan.cpu_worker.rate = 0.05;
  cfg.keep_inputs_resident = false;  // every request pays a faultable upload

  const char* trace_env = std::getenv("HH_TRACE_OUT");
  const std::string trace_path =
      trace_env != nullptr ? trace_env : "bench_runtime_trace.json";
  TraceRecorder recorder;
  if (!trace_path.empty()) {
    recorder.enable();
    cfg.trace = &recorder;
  }
  SpgemmService faulted(platform, pool, cfg);

  std::printf("\n== under fault injection: gpu rate %.2f, pcie rate %.2f, "
              "seed %llu, %zu requests ==\n",
              gpu_rate, pcie_rate,
              static_cast<unsigned long long>(cfg.fault_plan.seed),
              fault_requests);
  for (std::size_t i = 0; i < fault_requests; ++i) {
    SpgemmRequest req;
    req.a = &mats[i % mats.size()];
    req.label = std::string(names[i % mats.size()]) + "!" +
                std::to_string(i / mats.size());
    faulted.submit(std::move(req));
  }
  const BatchResult under_faults = faulted.drain();

  // Zero lost requests, every output bit-identical to the fault-free serial
  // reference for its matrix.
  std::vector<CsrMatrix> refs;
  refs.reserve(mats.size());
  for (const CsrMatrix& m : mats) {
    refs.push_back(run_hh_cpu(m, m, HhCpuOptions{}, platform, pool).c);
  }
  if (under_faults.results.size() != fault_requests) {
    std::fprintf(stderr, "FATAL: %zu of %zu requests lost under faults\n",
                 fault_requests - under_faults.results.size(),
                 fault_requests);
    return 1;
  }
  for (std::size_t i = 0; i < fault_requests; ++i) {
    if (!under_faults.requests[i].status.ok() ||
        !bit_identical(refs[i % refs.size()], under_faults.results[i].c)) {
      std::fprintf(stderr,
                   "FATAL: request %zu (%s) wrong under faults (status %s)\n",
                   i, under_faults.requests[i].label.c_str(),
                   under_faults.requests[i].status.to_string().c_str());
      return 1;
    }
  }
  std::printf("all %zu outputs bit-identical to the fault-free serial "
              "reference\n\n%s",
              under_faults.results.size(),
              under_faults.batch.to_string().c_str());
  std::printf("throughput: %.1f req/s healthy vs %.1f req/s under faults "
              "(simulated)\n\n",
              static_cast<double>(batch.batch.requests) /
                  batch.batch.makespan_s,
              static_cast<double>(under_faults.batch.requests) /
                  under_faults.batch.makespan_s);
  if (recorder.enabled()) {
    if (write_chrome_trace(recorder, trace_path)) {
      std::printf("trace: %zu events -> %s (load in ui.perfetto.dev)\n",
                  recorder.events().size(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write trace to %s\n",
                   trace_path.c_str());
    }
    std::printf("\nlifetime metrics of the faulted service:\n%s\n",
                faulted.metrics().to_string().c_str());
  }

  std::ostringstream part2;
  part2 << "{\"faulted_batch\":" << under_faults.batch.to_json()
        << ",\"gpu_rate\":" << jnum(gpu_rate)
        << ",\"pcie_rate\":" << jnum(pcie_rate) << ",\"seed\":"
        << static_cast<unsigned long long>(cfg.fault_plan.seed)
        << ",\"trace_events\":" << recorder.events().size() << "}";
  std::printf("%s\n", part2.str().c_str());

  // ---- Part 3: online autotuning — tuned vs untuned, identical traffic.
  const std::size_t tune_requests = static_cast<std::size_t>(
      env_double("HH_TUNE_REQUESTS", 256));

  // Eight distinct hot signature pairs: the three Table-I analogues plus
  // five generated power-law matrices spanning sizes and tail exponents.
  std::vector<CsrMatrix> tmats;
  std::vector<std::string> tnames;
  for (std::size_t m = 0; m < mats.size(); ++m) {
    tmats.push_back(mats[m]);  // copy: mats stay untouched for part 1/2
    tnames.emplace_back(names[m]);
  }
  // The last two are steep-tail, low-density instances where the analytic
  // pick is measurably non-optimal (the Phase III harmonic model overrates
  // the GPU's share on short rows) — the cases the tuner exists to fix.
  const struct { index_t rows; std::int64_t nnz; double alpha;
                 std::uint64_t seed; } gens[] = {
      {2000, 24000, 2.2, 11}, {3000, 30000, 2.6, 12}, {4000, 36000, 3.0, 13},
      {2000, 16000, 3.0, 24}, {2000, 16000, 3.4, 28},
  };
  for (const auto& g : gens) {
    PowerLawGenConfig pcfg;
    pcfg.rows = static_cast<index_t>(g.rows * scale * 10);  // scale-stable
    pcfg.target_nnz = static_cast<std::int64_t>(
        static_cast<double>(g.nnz) * scale * 10);
    pcfg.alpha = g.alpha;
    pcfg.seed = g.seed;
    tmats.push_back(generate_power_law_matrix(pcfg));
    std::ostringstream nm;
    nm << "powerlaw-a" << g.alpha << "-s" << g.seed;
    tnames.push_back(nm.str());
  }

  const auto submit_all = [&](SpgemmService& s) {
    for (std::size_t i = 0; i < tune_requests; ++i) {
      SpgemmRequest req;
      req.a = &tmats[i % tmats.size()];
      req.label = tnames[i % tmats.size()] + "@" +
                  std::to_string(i / tmats.size());
      s.submit(std::move(req));
    }
  };

  std::printf("\n== online autotuning: %zu requests over %zu hot signature "
              "pairs ==\n",
              tune_requests, tmats.size());

  SpgemmService untuned(platform, pool);  // tuning off: today's behaviour
  submit_all(untuned);
  const BatchResult base_run = untuned.drain();

  SpgemmService::Config tcfg;
  tcfg.tune.enabled = true;
  SpgemmService tuned(platform, pool, tcfg);
  submit_all(tuned);
  const BatchResult tuned_run = tuned.drain();
  const TuneReport tune_rep = tuned.tune_report();

  // Every tuned output must be bit-identical to the serial driver run at
  // the thresholds the service actually chose for that request (tuning
  // re-selects among candidates; it must not touch the numerics).
  std::map<std::tuple<std::size_t, offset_t, offset_t>, CsrMatrix> ref_cache;
  for (std::size_t i = 0; i < tuned_run.results.size(); ++i) {
    const RunReport& rep = tuned_run.results[i].report;
    const std::size_t m = i % tmats.size();
    const auto key = std::make_tuple(m, rep.threshold_a, rep.threshold_b);
    auto it = ref_cache.find(key);
    if (it == ref_cache.end()) {
      HhCpuOptions opt;
      opt.threshold_a = rep.threshold_a;
      opt.threshold_b = rep.threshold_b;
      it = ref_cache
               .emplace(key,
                        run_hh_cpu(tmats[m], tmats[m], opt, platform, pool).c)
               .first;
    }
    if (!bit_identical(it->second, tuned_run.results[i].c)) {
      std::fprintf(stderr,
                   "FATAL: tuned request %zu (%s) differs from the serial "
                   "path at its own thresholds (%lld, %lld)\n",
                   i, tuned_run.requests[i].label.c_str(),
                   static_cast<long long>(rep.threshold_a),
                   static_cast<long long>(rep.threshold_b));
      return 1;
    }
  }
  std::printf("all %zu tuned outputs bit-identical to the serial path at "
              "the service-chosen thresholds (%zu distinct plans)\n",
              tuned_run.results.size(), ref_cache.size());

  // Same-seed replay: bit-identical outputs, byte-identical TuneReport.
  SpgemmService replay(platform, pool, tcfg);
  submit_all(replay);
  const BatchResult replay_run = replay.drain();
  bool replay_ok = replay_run.results.size() == tuned_run.results.size();
  for (std::size_t i = 0; replay_ok && i < tuned_run.results.size(); ++i) {
    replay_ok = bit_identical(tuned_run.results[i].c, replay_run.results[i].c);
  }
  const std::string tune_json = tune_rep.to_json();
  replay_ok = replay_ok && tune_json == replay.tune_report().to_json();
  if (!replay_ok) {
    std::fprintf(stderr, "FATAL: same-seed tuned replay diverged\n");
    return 1;
  }
  std::printf("same-seed replay: outputs bit-identical, TuneReport "
              "byte-identical\n\n");

  std::printf("%s\n", tune_rep.to_string().c_str());
  std::printf("untuned: makespan %.3f ms, p95 %.3f ms\n",
              base_run.batch.makespan_s * 1e3,
              base_run.batch.p95_latency_s * 1e3);
  std::printf("tuned:   makespan %.3f ms, p95 %.3f ms, %lld promotions\n",
              tuned_run.batch.makespan_s * 1e3,
              tuned_run.batch.p95_latency_s * 1e3,
              static_cast<long long>(tune_rep.promotions));

  // The tuned run must not lose to the baseline it claims to improve.
  if (tuned_run.batch.makespan_s > base_run.batch.makespan_s ||
      tuned_run.batch.p95_latency_s > base_run.batch.p95_latency_s) {
    std::fprintf(stderr, "FATAL: tuned run lost to the untuned baseline\n");
    return 1;
  }
  if (tune_rep.promotions < 1) {
    std::fprintf(stderr, "FATAL: no signature was promoted\n");
    return 1;
  }

  std::ostringstream part3;
  part3 << "{\"requests\":" << tune_requests
        << ",\"signatures\":" << tmats.size()
        << ",\"untuned\":" << base_run.batch.to_json()
        << ",\"tuned\":" << tuned_run.batch.to_json() << ",\"deltas\":{"
        << "\"makespan_s\":"
        << jnum(base_run.batch.makespan_s - tuned_run.batch.makespan_s)
        << ",\"p50_latency_s\":"
        << jnum(base_run.batch.p50_latency_s - tuned_run.batch.p50_latency_s)
        << ",\"p95_latency_s\":"
        << jnum(base_run.batch.p95_latency_s - tuned_run.batch.p95_latency_s)
        << ",\"p99_latency_s\":"
        << jnum(base_run.batch.p99_latency_s - tuned_run.batch.p99_latency_s)
        << ",\"makespan_speedup\":"
        << jnum(base_run.batch.makespan_s /
                std::max(tuned_run.batch.makespan_s, 1e-300))
        << "},\"replay_identical\":true,\"tune_report\":" << tune_json << "}";
  std::printf("%s\n", part3.str().c_str());

  // ---- Part 4: batched wave executor — wave-on vs wave-off ablation on a
  // repeated-operand batch (the traffic shape waves exist for). Both runs
  // drop sticky residency so every request pays its upload in the off run;
  // the workspace pool is off so report JSON is byte-comparable on replay
  // (pool reuse counts depend on host thread timing, not the schedule).
  const std::size_t wave_requests = static_cast<std::size_t>(
      env_double("HH_WAVE_REQUESTS", 256));
  std::printf("\n== wave executor: %zu repeated-operand requests over %zu "
              "matrices ==\n",
              wave_requests, mats.size());

  // A PCIe-constrained variant of the platform: on the default machine this
  // workload is CPU-bound and upload dedup can't touch the critical path.
  // Narrowing the link (think a contended ×4 slot) puts H2D where waves
  // earn their keep; the serial reference runs on the same variant so the
  // planner picks identical thresholds.
  CostModel wcm;
  wcm.pcie.bw_gbps = 0.1;
  wcm.pcie.latency_s = 200e-6;
  const HeteroPlatform wplatform = make_scaled_platform(scale, wcm);
  std::vector<CsrMatrix> wrefs;
  wrefs.reserve(mats.size());
  for (const CsrMatrix& m : mats) {
    wrefs.push_back(run_hh_cpu(m, m, HhCpuOptions{}, wplatform, pool).c);
  }

  const auto submit_wave_traffic = [&](SpgemmService& s) {
    for (std::size_t i = 0; i < wave_requests; ++i) {
      SpgemmRequest req;
      req.a = &mats[i % mats.size()];
      req.label = std::string(names[i % mats.size()]) + "~" +
                  std::to_string(i / mats.size());
      s.submit(std::move(req));
    }
  };

  SpgemmService::Config woff;
  woff.keep_inputs_resident = false;
  woff.use_workspace_pool = false;
  SpgemmService::Config won = woff;
  won.wave.enabled = true;

  SpgemmService wave_off(wplatform, pool, woff);
  submit_wave_traffic(wave_off);
  const BatchResult off_run = wave_off.drain();

  SpgemmService wave_on(wplatform, pool, won);
  submit_wave_traffic(wave_on);
  const BatchResult on_run = wave_on.drain();

  // Every wave-executed output bit-identical to the serial reference.
  if (on_run.results.size() != wave_requests) {
    std::fprintf(stderr, "FATAL: wave run lost requests\n");
    return 1;
  }
  for (std::size_t i = 0; i < wave_requests; ++i) {
    if (!bit_identical(wrefs[i % wrefs.size()], on_run.results[i].c)) {
      std::fprintf(stderr,
                   "FATAL: wave request %zu (%s) differs from the serial "
                   "reference\n",
                   i, on_run.requests[i].label.c_str());
      return 1;
    }
  }
  std::printf("all %zu wave outputs bit-identical to the serial reference\n",
              wave_requests);

  // H2D payload of the off run: with residency off, every request uploads
  // its operand once (exact, since part 4 traffic is fault-free).
  std::int64_t off_h2d_bytes = 0;
  for (std::size_t i = 0; i < wave_requests; ++i) {
    off_h2d_bytes +=
        static_cast<std::int64_t>(mats[i % mats.size()].byte_size());
  }
  std::printf("%s\n", on_run.batch.to_string().c_str());
  std::printf("wave off: makespan %.3f ms, h2d payload %lld bytes\n",
              off_run.batch.makespan_s * 1e3,
              static_cast<long long>(off_h2d_bytes));
  std::printf("wave on:  makespan %.3f ms, h2d payload %lld bytes, "
              "%lld deduped uploads\n",
              on_run.batch.makespan_s * 1e3,
              static_cast<long long>(on_run.batch.wave.h2d_bytes),
              static_cast<long long>(on_run.batch.wave.deduped_uploads));

  if (on_run.batch.makespan_s >= off_run.batch.makespan_s) {
    std::fprintf(stderr, "FATAL: wave-enabled makespan did not improve\n");
    return 1;
  }
  if (on_run.batch.wave.h2d_bytes >= off_h2d_bytes) {
    std::fprintf(stderr, "FATAL: wave-enabled H2D bytes did not shrink\n");
    return 1;
  }
  if (on_run.batch.wave.deduped_uploads < 1) {
    std::fprintf(stderr, "FATAL: no upload was deduped\n");
    return 1;
  }

  // Same-seed replay: byte-identical BatchReport (wave counters included).
  SpgemmService wave_replay(wplatform, pool, won);
  submit_wave_traffic(wave_replay);
  const BatchResult wave_replay_run = wave_replay.drain();
  if (on_run.batch.to_json() != wave_replay_run.batch.to_json()) {
    std::fprintf(stderr,
                 "FATAL: same-seed wave replay report diverged\n  first:  "
                 "%s\n  replay: %s\n",
                 on_run.batch.to_json().c_str(),
                 wave_replay_run.batch.to_json().c_str());
    return 1;
  }
  std::printf("same-seed replay: BatchReport byte-identical (wave counters "
              "included)\n");

  std::ostringstream part4;
  part4 << "{\"requests\":" << wave_requests
        << ",\"wave_off\":" << off_run.batch.to_json()
        << ",\"wave_on\":" << on_run.batch.to_json()
        << ",\"off_h2d_bytes\":" << off_h2d_bytes << ",\"deltas\":{"
        << "\"makespan_s\":"
        << jnum(off_run.batch.makespan_s - on_run.batch.makespan_s)
        << ",\"makespan_speedup\":"
        << jnum(off_run.batch.makespan_s /
                std::max(on_run.batch.makespan_s, 1e-300))
        << ",\"h2d_bytes_saved\":"
        << (off_h2d_bytes - on_run.batch.wave.h2d_bytes)
        << "},\"replay_identical\":true}";
  std::printf("%s\n", part4.str().c_str());

  // Combined machine-readable record for the CI artifact.
  const char* bench_env = std::getenv("HH_BENCH_OUT");
  const std::string bench_path =
      bench_env != nullptr ? bench_env : "BENCH_runtime.json";
  if (!bench_path.empty()) {
    if (std::FILE* f = std::fopen(bench_path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"bench\":\"runtime_throughput\",\"scale\":%s,"
                   "\"part1\":%s,\"part2\":%s,\"part3\":%s,\"part4\":%s}\n",
                   jnum(scale).c_str(), part1.str().c_str(),
                   part2.str().c_str(), part3.str().c_str(),
                   part4.str().c_str());
      std::fclose(f);
      std::printf("\nbench record -> %s\n", bench_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n",
                   bench_path.c_str());
    }
  }

  // Perf-gate baselines (obs/perf_baseline.hpp): one record per scenario,
  // written only when HH_BASELINE_OUT names a path. CI diffs a fresh
  // emission against the committed bench/baselines/ snapshot with
  // bench_compare; regenerate intentionally via the refresh-baselines
  // CMake target (docs/observability.md).
  const char* baseline_env = std::getenv("HH_BASELINE_OUT");
  if (baseline_env != nullptr && baseline_env[0] != '\0') {
    std::vector<PerfBaseline> baselines;
    baselines.push_back(baseline_from_batch("runtime_throughput.part1_pipelined",
                                            scale, batch.batch));
    baselines.push_back(baseline_from_batch("runtime_throughput.part2_faulted",
                                            scale, under_faults.batch));
    baselines.push_back(baseline_from_batch("runtime_throughput.part3_tuned",
                                            scale, tuned_run.batch));
    baselines.push_back(baseline_from_batch("runtime_throughput.part4_wave",
                                            scale, on_run.batch));
    if (std::FILE* f = std::fopen(baseline_env, "w")) {
      const std::string text = render_perf_baselines(baselines);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("perf baselines -> %s\n", baseline_env);
    } else {
      std::fprintf(stderr, "FATAL: could not write baselines to %s\n",
                   baseline_env);
      return 1;
    }
  }
  return 0;
}
