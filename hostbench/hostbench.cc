// hostbench: the host-clock benchmark of hhspmm.
//
//   hostbench --workload <table1_stream|tiny_burst|threshold_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--min-calls <n>] [--setups <n>] [--corrupt-call <i>]
//             [--out-dir <dir>]
//
// Every workload is a closed loop with one client. Inputs are generated here
// from --seed; the library only ever sees the generated matrices. The loop
// runs in epochs: an epoch is a fixed mix of client calls, in a new seeded
// order, served by a fresh SpgemmService, so the plan cache starts cold in
// every epoch and a first sighting pays its miss on the clock. After one
// untimed reference epoch, epochs repeat until --seconds of on-clock time
// and --min-calls calls have accumulated.
//
// Only public entry points are driven — SpgemmService::submit/drain,
// BatchReport::to_json, run_hh_cpu, pick_threshold_*, the core/hh_stages
// functions and the baselines — so every layer is measured from outside by
// timing the calls into it.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced epochs: the traced ones record spans
// around each call into a layer (name, start, end, parent, request id),
// replay each served request through the stage functions to split the
// service's host time into layers, and write the spans as Perfetto JSON plus
// a per-layer busy/self rollup to --out-dir. Every output is checked off the
// clock, bit for bit; a mismatch is counted as failed and the run exits 1.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "core/hh_stages.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "runtime/service.hpp"
#include "sparse/equality.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace {

using namespace hh;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool bit_identical(const CsrMatrix& x, const CsrMatrix& y) {
  return x.rows == y.rows && x.cols == y.cols && x.indptr == y.indptr &&
         x.indices == y.indices && x.values == y.values;
}

// Fisher-Yates with the library PRNG, so an order depends only on the seed.
template <typename T>
void seeded_shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

struct Usage {
  double cpu_s = 0;
  std::int64_t minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minor_faults = ru.ru_minflt;
  return u;
}

// Peak resident set size since the last reset_peak_rss(), in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ---------------------------------------------------------------------------
// Benchmark-side spans. Kept in memory; written out when the run ends.

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  // index into the span list, -1 for a root
  std::int64_t request;
};

class Tracer {
 public:
  bool enabled = false;

  int begin(const char* name, std::int64_t request) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tr, const char* name, std::int64_t request)
      : tr_(tr), id_(tr.begin(name, request)) {}
  ~Scope() { tr_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
  int id_;
};

struct LayerTime {
  std::int64_t count = 0;
  double busy_s = 0;
  double self_s = 0;  // busy minus the part covered by child spans
};

// Busy and self time per span name over spans[first, end).
std::map<std::string, LayerTime> rollup(const std::vector<Span>& spans,
                                        std::size_t first) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child_s[static_cast<std::size_t>(spans[i].parent)] +=
          spans[i].end_s - spans[i].start_s;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = first; i < spans.size(); ++i) {
    LayerTime& l = out[spans[i].name];
    const double d = spans[i].end_s - spans[i].start_s;
    l.count += 1;
    l.busy_s += d;
    l.self_s += d - child_s[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-epoch counts. All but the workspace counters and the report size (which
// depend on host thread timing) are a pure function of the seed and the
// epoch's call order.

struct Counts {
  std::int64_t requests = 0;
  std::int64_t plan_hits = 0;
  std::int64_t flops = 0;   // Phase II multiply-adds (stage replay)
  std::int64_t tuples = 0;  // Phase II tuples emitted (stage replay)
  std::int64_t cpu_units = 0;
  std::int64_t gpu_units = 0;
  std::int64_t tuples_in = 0;  // Phase IV
  std::int64_t tuples_out = 0;
  std::int64_t retries = 0;
  std::int64_t degraded = 0;
  std::int64_t deduped_uploads = 0;
  std::int64_t report_bytes = 0;
  std::int64_t ws_acquires = 0;
  std::int64_t ws_reuses = 0;
  double sim_makespan_s = 0;
  double sim_cpu_busy_s = 0;
  double sim_gpu_busy_s = 0;

  // Work that does not depend on the order of an epoch's calls.
  auto work() const {
    return std::tie(requests, flops, tuples, tuples_in, tuples_out);
  }
};

// Phases II-IV of one product through the stage functions, one span per
// layer. Adds the work counts to `c` and the simulated CPU and GPU busy
// seconds of the three stages to `sim`.
struct SimBusy {
  double cpu_s = 0;
  double gpu_s = 0;
};

CsrMatrix run_stages(const CsrMatrix& a, const CsrMatrix& b,
                     const PartitionPlan& plan, const HeteroPlatform& platform,
                     ThreadPool& pool, WorkspacePool& ws, Tracer& tr,
                     std::int64_t request, Counts& c, SimBusy& sim) {
  Phase2Result p2;
  {
    Scope s(tr, "spgemm.phase2", request);
    p2 = run_phase2(a, b, plan, platform, pool, &ws);
  }
  c.flops += p2.hh_stats.flops + p2.ll_stats.flops;
  c.tuples += p2.hh_stats.tuples + p2.ll_stats.tuples;
  sim.cpu_s += p2.cpu_s;
  sim.gpu_s += p2.gpu_s;

  // Device clocks entering the queue, as run_hh_cpu sets them.
  double transfer_in = platform.link().h2d().matrix_transfer_time(a);
  if (&a != &b) transfer_in += platform.link().h2d().matrix_transfer_time(b);
  WorkQueueResult queue;
  {
    Scope s(tr, "sched.phase3", request);
    queue = run_phase3(a, b, plan, WorkQueueConfig{},
                       plan.phase1_s + p2.cpu_s,
                       plan.phase1_s + transfer_in + p2.gpu_s, platform, pool,
                       &ws);
  }
  c.cpu_units += queue.cpu_units;
  c.gpu_units += queue.gpu_units;
  sim.cpu_s += queue.cpu_busy;
  sim.gpu_s += queue.gpu_busy;

  Scope s(tr, "primitives.merge", request);
  MergeResult merged =
      run_phase4(std::move(p2), std::move(queue), platform, pool, &ws);
  c.tuples_in += merged.merge.tuples_in;
  c.tuples_out += merged.merge.tuples_out;
  sim.cpu_s += merged.cpu_s;
  return std::move(merged.c);
}

// The paper's offline characterisation of one self-product: the empirical
// sweep (one run_hh_cpu per grid candidate), the analytic pick, and the
// CPU-only, GPU-only and HiPC2012 baselines. Returns the empirical choice;
// `cpu_only` receives the CPU-only baseline's product.
ThresholdChoice pick_and_baselines(const CsrMatrix& a,
                                   const HeteroPlatform& platform,
                                   ThreadPool& pool, Tracer& tr,
                                   std::int64_t request, CsrMatrix& cpu_only) {
  ThresholdChoice chosen;
  {
    Scope s(tr, "core.threshold_pick", request);
    chosen = pick_threshold_empirical(a, a, platform, pool);
    (void)pick_threshold_analytic(a, a, platform);
  }
  Scope s(tr, "core.baselines", request);
  cpu_only = run_cpu_only_mkl(a, a, platform, pool).c;
  (void)run_gpu_only_cusparse(a, a, platform, pool);
  (void)run_hipc2012(a, a, platform, pool);
  return chosen;
}

// ---------------------------------------------------------------------------
// Workloads.

// Salt of the warm-up inputs: matrices outside every measured set.
constexpr std::uint64_t kWarmSalt = 0x5eed;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  std::size_t epoch_calls() const { return mix_.size(); }

  // Starts an epoch (off the clock): a new seeded order of the call mix and,
  // for the serve workloads, a fresh service.
  void begin_epoch(Xoshiro256& rng) {
    order_ = mix_;
    seeded_shuffle(order_, rng);
    reset_service();
  }

  // Identifies the call at position i of this epoch across epochs: its call
  // id and how many times that id came earlier in the epoch (a repeated
  // Table-I request is cold on its first sighting and warm on its second).
  std::size_t key(std::size_t i) const {
    const auto earlier =
        std::count(order_.begin(), order_.begin() + static_cast<long>(i),
                   order_[i]);
    return order_[i] * mix_.size() + static_cast<std::size_t>(earlier);
  }

  // One client call, on the clock.
  void call(std::size_t i, Tracer& tr, std::int64_t call_id, Counts& c) {
    run_call(order_[i], tr, call_id, c);
  }

  // Off the clock: checks the last call's outputs bit for bit and returns
  // how many of its requests completed with a verified output. `corrupt`
  // first damages one output value (the benchmark's self-test).
  virtual int verify(bool corrupt) = 0;
  // Traced epochs only, off the client clock: replays the last call's
  // requests through the stage functions, one span per layer. Returns false
  // if a replayed product or threshold differs from the served one.
  virtual bool replay(Tracer& /*tr*/, std::int64_t /*call_id*/,
                      Counts& /*c*/) {
    return true;
  }

  double generate_s = 0;  // input generation share of the set-up

 protected:
  virtual void reset_service() {}
  virtual void run_call(std::size_t id, Tracer& tr, std::int64_t call_id,
                        Counts& c) = 0;

  std::vector<std::size_t> mix_;  // call ids of one epoch, with repeats

 private:
  std::vector<std::size_t> order_;
};

// References: one serial run_hh_cpu per (operands, thresholds), computed on
// first use and kept, since epochs repeat the same products.
class ReferenceCache {
 public:
  const CsrMatrix& get(const std::vector<CsrMatrix>& mats, std::size_t ai,
                       std::size_t bi, offset_t ta, offset_t tb,
                       const HeteroPlatform& platform, ThreadPool& pool) {
    const auto key = std::make_tuple(ai, bi, ta, tb);
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      HhCpuOptions opt;
      opt.threshold_a = ta;
      opt.threshold_b = tb;
      it = refs_
               .emplace(key,
                        run_hh_cpu(mats[ai], mats[bi], opt, platform, pool).c)
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::tuple<std::size_t, std::size_t, offset_t, offset_t>,
           CsrMatrix>
      refs_;
};

// The two serve workloads: each call submits a list of products (operand
// ids into `mats_`), drains, and renders the BatchReport JSON.
class ServeWorkload : public Workload {
 public:
  using Product = std::pair<std::size_t, std::size_t>;  // (a, b); a == b: A×A

  ServeWorkload(double scale, ThreadPool& pool, SpgemmService::Config config)
      : platform_(make_scaled_platform(scale)), pool_(pool),
        config_(std::move(config)) {}

  int verify(bool corrupt) override {
    const std::vector<Product>& ops = calls_[last_call_];
    int ok = 0;
    for (std::size_t j = 0; j < ops.size() && j < last_.requests.size();
         ++j) {
      const RequestReport& rr = last_.requests[j];
      CsrMatrix& got = last_.results[j].c;
      if (corrupt && j == 0 && !got.values.empty()) got.values[0] += 1.0;
      if (!rr.status.ok() || rr.deadline_missed) continue;
      const CsrMatrix& want =
          refs_.get(mats_, ops[j].first, ops[j].second, rr.run.threshold_a,
                    rr.run.threshold_b, platform_, pool_);
      ok += bit_identical(got, want);
    }
    return ok;
  }

  // A plan-cache miss re-runs the analytic pick, a hit plans at the cached
  // thresholds — what the service does inside drain().
  bool replay(Tracer& tr, std::int64_t call_id, Counts& c) override {
    const std::vector<Product>& ops = calls_[last_call_];
    bool same = true;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const RequestReport& rr = last_.requests[j];
      const CsrMatrix& a = mats_[ops[j].first];
      const CsrMatrix& b = mats_[ops[j].second];
      const std::int64_t request =
          call_id * 1000 + static_cast<std::int64_t>(j);
      Scope s(tr, "replay", request);
      PartitionPlan plan;
      {
        Scope p(tr, "core.plan", request);
        plan = rr.plan_cache_hit
                   ? make_partition_plan(a, b, rr.run.threshold_a,
                                         rr.run.threshold_b, platform_)
                   : make_partition_plan(a, b, 0, 0, platform_);
      }
      SimBusy unused;  // the served batch already reports device time
      const CsrMatrix product =
          run_stages(a, b, plan, platform_, pool_, ws_, tr, request, c, unused);
      same = same && plan.a.threshold == rr.run.threshold_a &&
             plan.b.threshold == rr.run.threshold_b &&
             bit_identical(product, last_.results[j].c);
    }
    return same;
  }

 protected:
  void reset_service() override {
    svc_ = std::make_unique<SpgemmService>(platform_, pool_, config_);
  }

  void run_call(std::size_t id, Tracer& tr, std::int64_t call_id,
                Counts& c) override {
    last_call_ = id;
    serve(*svc_, mats_, calls_[id], tr, call_id, &c, &last_);
  }

  // submit → drain → render on `svc`. Counts and the result are optional so
  // warm-up can share the code path.
  static void serve(SpgemmService& svc, const std::vector<CsrMatrix>& mats,
                    const std::vector<Product>& ops, Tracer& tr,
                    std::int64_t call_id, Counts* c, BatchResult* out) {
    {
      Scope s(tr, "runtime.submit", call_id);
      for (const auto& [ai, bi] : ops) {
        SpgemmRequest req;
        req.a = &mats[ai];
        req.b = ai == bi ? nullptr : &mats[bi];
        svc.submit(std::move(req));
      }
    }
    BatchResult result;
    {
      Scope s(tr, "runtime.drain", call_id);
      result = svc.drain();
    }
    std::string json;
    {
      Scope s(tr, "obs.report_render", call_id);
      json = result.batch.to_json();
    }
    if (c != nullptr) {
      const BatchReport& b = result.batch;
      c->requests += static_cast<std::int64_t>(ops.size());
      c->report_bytes += static_cast<std::int64_t>(json.size());
      c->retries += b.faults.retries;
      c->degraded += static_cast<std::int64_t>(b.degraded);
      c->deduped_uploads += b.wave.deduped_uploads;
      // Pool stats are lifetime totals of this epoch's service.
      c->ws_acquires = b.workspace.spa_acquires + b.workspace.coo_acquires;
      c->ws_reuses = b.workspace.spa_reuses + b.workspace.coo_reuses;
      c->sim_makespan_s += b.makespan_s;
      c->sim_cpu_busy_s += b.cpu_busy_s;
      c->sim_gpu_busy_s += b.gpu_busy_s;
      for (const RequestReport& r : result.requests) {
        c->plan_hits += r.plan_cache_hit;
      }
    }
    if (out != nullptr) *out = std::move(result);
  }

  const std::vector<Product>& last_products() const {
    return calls_[last_call_];
  }
  const BatchResult& last_result() const { return last_; }

  HeteroPlatform platform_;
  ThreadPool& pool_;
  SpgemmService::Config config_;
  std::vector<CsrMatrix> mats_;
  std::vector<std::vector<Product>> calls_;  // indexed by call id

 private:
  std::unique_ptr<SpgemmService> svc_;
  std::size_t last_call_ = 0;
  BatchResult last_;
  ReferenceCache refs_;
  WorkspacePool ws_;  // the stage replay's own pool
};

// table1_stream: one self-product request per call over the 12 Table-I
// analogues. An epoch serves every analogue twice in a seeded order, so it
// has 12 cold (plan-cache miss) and 12 warm requests. The analogues are the
// repository's fixed synthetic stand-ins for the paper's datasets (the same
// matrices the figure benches use); the seed sets the traffic order. Salting
// them by seed would move the epoch's work by several percent between seeds
// (the hub rows of webbase-1M and cit-Patents carry most of the flops).
class Table1Stream : public ServeWorkload {
 public:
  static constexpr double kScale = 0.02;

  explicit Table1Stream(ThreadPool& pool)
      : ServeWorkload(kScale, pool, SpgemmService::Config{}) {
    const double t0 = now_s();
    for (const DatasetSpec& spec : table1_datasets()) {
      mats_.push_back(make_dataset(spec, kScale));
    }
    generate_s = now_s() - t0;
    for (std::size_t k = 0; k < mats_.size(); ++k) {
      calls_.push_back({{k, k}});
      mix_.insert(mix_.end(), 2, k);
    }

    // Warm-up on analogues outside the measured set (another salt).
    std::vector<CsrMatrix> warm;
    for (const char* name : {"wiki-Vote", "ca-CondMat", "email-Enron"}) {
      warm.push_back(make_dataset(dataset_spec(name), kScale, kWarmSalt));
    }
    SpgemmService svc(platform_, pool_, config_);
    Tracer off;
    for (std::size_t k = 0; k < warm.size(); ++k) {
      serve(svc, warm, {{k, k}}, off, 0, nullptr, nullptr);
      (void)run_hh_cpu(warm[k], warm[k], HhCpuOptions{}, platform_, pool_);
    }
  }
};

// tiny_burst: each call is a burst of 64 tiny products over a seeded pool of
// 32 operands — 4 shape groups of 8, with 300, 500, 700 and 900 rows — on a
// service with the wave executor on and a fixed-seed fault plan. Every burst
// holds 8 A×A and 8 A×B products per group (A and B distinct, same shape),
// in seeded order, so the seed changes the operands and pairs but not the
// amount of work. An epoch is the same 8 bursts in a seeded order.
class TinyBurst : public ServeWorkload {
 public:
  static constexpr double kScale = 0.02;
  static constexpr index_t kGroupRows[] = {300, 500, 700, 900};
  static constexpr int kPerGroup = 8;
  static constexpr std::size_t kBursts = 8;

  TinyBurst(std::uint64_t seed, ThreadPool& pool)
      : ServeWorkload(kScale, pool, config()) {
    Xoshiro256 rng(seed);
    const double t0 = now_s();
    mats_ = make_pool(rng, kPerGroup);
    generate_s = now_s() - t0;
    for (std::size_t k = 0; k < kBursts; ++k) {
      calls_.push_back(make_burst(rng, kPerGroup, 8));
      mix_.push_back(k);
    }

    // Warm-up: one burst over a separate operand pool.
    Xoshiro256 warm_rng(kWarmSalt);
    const std::vector<CsrMatrix> warm = make_pool(warm_rng, 2);
    SpgemmService svc(platform_, pool_, config_);
    Tracer off;
    serve(svc, warm, make_burst(warm_rng, 2, 8), off, 0, nullptr, nullptr);
  }

  // Besides the stage replay, a traced epoch characterises the burst's first
  // A×A operand as threshold_sweep does (threshold pickers and baselines),
  // so those layers are measured on a workload the benchmark runs. The
  // CPU-only product must match the served one up to summation order.
  bool replay(Tracer& tr, std::int64_t call_id, Counts& c) override {
    const bool same = ServeWorkload::replay(tr, call_id, c);
    const std::vector<Product>& ops = last_products();
    std::size_t j = 0;
    while (ops[j].first != ops[j].second) ++j;
    Scope s(tr, "characterise", call_id);
    CsrMatrix cpu_only;
    (void)pick_and_baselines(mats_[ops[j].first], platform_, pool_, tr,
                             call_id, cpu_only);
    return same && approx_equal(cpu_only, last_result().results[j].c, 1e-9);
  }

 private:
  static SpgemmService::Config config() {
    SpgemmService::Config cfg;
    cfg.wave.enabled = true;
    cfg.keep_inputs_resident = false;  // every wave uploads (and dedups)
    cfg.fault_plan.seed = 0x7b0a57;
    cfg.fault_plan.gpu_kernel.rate = 0.2;
    cfg.fault_plan.h2d.rate = 0.1;
    cfg.fault_plan.d2h.rate = 0.1;
    return cfg;
  }

  // ~5 nnz/row, columns drawn independently of the rows.
  static std::vector<CsrMatrix> make_pool(Xoshiro256& rng, int per_group) {
    std::vector<CsrMatrix> pool;
    for (const index_t n : kGroupRows) {
      for (int k = 0; k < per_group; ++k) {
        PowerLawGenConfig cfg;
        cfg.rows = n;
        cfg.alpha = 2.5;
        cfg.target_nnz = 5 * static_cast<std::int64_t>(n);
        cfg.correlate_columns = false;
        cfg.seed = rng();
        pool.push_back(generate_power_law_matrix(cfg));
      }
    }
    return pool;
  }

  // `per_kind` A×A and `per_kind` A×B products per group, shuffled.
  static std::vector<Product> make_burst(Xoshiro256& rng, int per_group,
                                         int per_kind) {
    std::vector<Product> burst;
    for (std::size_t g = 0; g < std::size(kGroupRows); ++g) {
      const auto pick = [&] {
        return g * static_cast<std::size_t>(per_group) +
               rng.below(static_cast<std::uint64_t>(per_group));
      };
      for (int k = 0; k < per_kind; ++k) {
        const std::size_t a = pick();
        burst.push_back({a, a});
      }
      for (int k = 0; k < per_kind; ++k) {
        const std::size_t a = pick();
        std::size_t b = pick();
        while (b == a) b = pick();
        burst.push_back({a, b});
      }
    }
    seeded_shuffle(burst, rng);
    return burst;
  }
};

// threshold_sweep: no service. Each call fully characterises one analogue
// of a fixed Table-I subset: the empirical sweep (one run_hh_cpu per grid
// candidate), the analytic pick, the CPU-only / GPU-only / HiPC2012
// baselines, and the product at the chosen threshold through the stage
// functions. An epoch visits the subset once, in a seeded order; as in
// table1_stream the analogues themselves are the fixed ones, so the work does
// not depend on the seed.
class ThresholdSweep : public Workload {
 public:
  static constexpr double kScale = 0.01;

  explicit ThresholdSweep(ThreadPool& pool)
      : platform_(make_scaled_platform(kScale)), pool_(pool) {
    // Hub-heavy (email-Enron, α≈2.1), mid-α scale-free, and non-scale-free
    // (roadNet-CA, p2p-Gnutella31) structure.
    const char* subset[] = {"email-Enron", "wiki-Vote", "ca-CondMat",
                            "internet",    "p2p-Gnutella31", "roadNet-CA"};
    const double t0 = now_s();
    for (const char* name : subset) {
      mats_.push_back(make_dataset(dataset_spec(name), kScale));
    }
    generate_s = now_s() - t0;
    for (std::size_t k = 0; k < mats_.size(); ++k) mix_.push_back(k);

    // Warm-up: one characterisation of an analogue outside the subset.
    const CsrMatrix warm =
        make_dataset(dataset_spec("dblp2010"), kScale, kWarmSalt);
    Tracer off;
    Counts ignored;
    (void)characterise(warm, off, 0, ignored);
  }

  // The product must equal a serial run_hh_cpu at the chosen threshold bit
  // for bit, and the CPU-only baseline's product up to summation order.
  int verify(bool corrupt) override {
    if (corrupt && !product_.values.empty()) product_.values[0] += 1.0;
    const CsrMatrix& want =
        refs_.get(mats_, last_, last_, chosen_t_, chosen_t_, platform_, pool_);
    return bit_identical(product_, want) &&
           approx_equal(baseline_, product_, 1e-9);
  }

 private:
  void run_call(std::size_t id, Tracer& tr, std::int64_t call_id,
                Counts& c) override {
    last_ = id;
    product_ = characterise(mats_[id], tr, call_id, c);
    c.requests += 1;
  }

  CsrMatrix characterise(const CsrMatrix& a, Tracer& tr, std::int64_t call_id,
                         Counts& c) {
    const ThresholdChoice chosen =
        pick_and_baselines(a, platform_, pool_, tr, call_id, baseline_);
    chosen_t_ = chosen.t;
    Scope s(tr, "check", call_id);
    PartitionPlan plan;
    {
      Scope p(tr, "core.plan", call_id);
      plan = make_partition_plan(a, a, chosen.t, chosen.t, platform_);
    }
    SimBusy sim;
    CsrMatrix product =
        run_stages(a, a, plan, platform_, pool_, ws_, tr, call_id, c, sim);
    c.sim_makespan_s += chosen.predicted_s;
    c.sim_cpu_busy_s += sim.cpu_s;
    c.sim_gpu_busy_s += sim.gpu_s;
    const WorkspacePool::Stats st = ws_.stats();
    c.ws_acquires = st.spa_acquires + st.coo_acquires;
    c.ws_reuses = st.spa_reuses + st.coo_reuses;
    return product;
  }

  HeteroPlatform platform_;
  ThreadPool& pool_;
  std::vector<CsrMatrix> mats_;
  WorkspacePool ws_;
  ReferenceCache refs_;
  std::size_t last_ = 0;
  offset_t chosen_t_ = 0;
  CsrMatrix product_;
  CsrMatrix baseline_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, ThreadPool& pool) {
  if (name == "table1_stream") return std::make_unique<Table1Stream>(pool);
  if (name == "tiny_burst") return std::make_unique<TinyBurst>(seed, pool);
  if (name == "threshold_sweep") return std::make_unique<ThresholdSweep>(pool);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The measurement loop.

struct Epoch {
  bool traced = false;
  double on_clock_s = 0;  // Σ call latency
  std::vector<double> latencies_s;
  std::vector<std::size_t> keys;  // Workload::key of each call
  Counts counts;
  std::int64_t verified = 0;
  bool replay_same = true;
  double cpu_s = 0;  // process CPU time inside the calls
  std::int64_t minor_faults = 0;
  double wall_s = 0;  // whole epoch, measured outside its spans
  std::size_t first_span = 0;
  std::map<std::string, LayerTime> layers;
};

Epoch run_epoch(Workload& w, Xoshiro256& order_rng, Tracer& tr, bool traced,
                std::int64_t& call_id, std::int64_t corrupt_call) {
  Epoch e;
  e.traced = traced;
  tr.enabled = traced;
  e.first_span = tr.spans().size();
  const double start = now_s();
  {
    Scope root(tr, "epoch", -1);
    w.begin_epoch(order_rng);
    for (std::size_t i = 0; i < w.epoch_calls(); ++i, ++call_id) {
      const Usage u0 = usage_now();
      const double t0 = now_s();
      {
        Scope s(tr, "call", call_id);
        w.call(i, tr, call_id, e.counts);
      }
      const double latency = now_s() - t0;
      const Usage u1 = usage_now();
      e.latencies_s.push_back(latency);
      e.keys.push_back(w.key(i));
      e.on_clock_s += latency;
      e.cpu_s += u1.cpu_s - u0.cpu_s;
      e.minor_faults += u1.minor_faults - u0.minor_faults;
      {
        Scope s(tr, "bench.verify", call_id);
        e.verified += w.verify(call_id == corrupt_call);
      }
      if (traced) {
        e.replay_same = w.replay(tr, call_id, e.counts) && e.replay_same;
      }
    }
  }
  e.wall_s = now_s() - start;
  tr.enabled = false;
  if (traced) e.layers = rollup(tr.spans(), e.first_span);
  return e;
}

double busy(const Epoch& e, const char* name) {
  const auto it = e.layers.find(name);
  return it == e.layers.end() ? 0.0 : it->second.busy_s;
}

std::int64_t span_count(const Epoch& e, const char* name) {
  const auto it = e.layers.find(name);
  return it == e.layers.end() ? 0 : it->second.count;
}

// Median over traced epochs of f(epoch).
template <typename F>
double traced_median(const std::vector<Epoch>& epochs, F f) {
  std::vector<double> v;
  for (const Epoch& e : epochs) {
    if (e.traced) v.push_back(f(e));
  }
  return median(v);
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void write_trace_files(const std::string& dir, const std::string& workload,
                       std::uint64_t seed, const Tracer& tr,
                       const std::vector<Epoch>& epochs, double wall_s,
                       double self_sum_s) {
  std::filesystem::create_directories(dir);
  const std::string stem =
      dir + "/" + workload + "_seed" + std::to_string(seed);
  const std::vector<Span>& spans = tr.spans();
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  {
    std::ofstream f(stem + "_trace.json");
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"hostbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << num((s.start_s - t0) * 1e6)
        << ",\"dur\":" << num((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    }
    f << "]}\n";
  }
  std::map<std::string, LayerTime> total;
  for (const Epoch& e : epochs) {
    for (const auto& [name, l] : e.layers) {
      LayerTime& t = total[name];
      t.count += l.count;
      t.busy_s += l.busy_s;
      t.self_s += l.self_s;
    }
  }
  std::ofstream f(stem + "_rollup.json");
  f << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
    << ",\"traced_wall_s\":" << num(wall_s)
    << ",\"self_sum_s\":" << num(self_sum_s) << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, l] : total) {
    f << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << l.count
      << ",\"busy_s\":" << num(l.busy_s) << ",\"self_s\":" << num(l.self_s)
      << "}";
    first = false;
  }
  f << "}}\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::int64_t min_calls = 100;
  int setups = 5;
  std::int64_t corrupt_call = -1;
  std::string out_dir = ".bench_out";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = std::stoi(v) != 0;
    else if (k == "--min-calls") o.min_calls = std::stoll(v);
    else if (k == "--setups") o.setups = std::max(1, std::stoi(v));
    else if (k == "--corrupt-call") o.corrupt_call = std::stoll(v);
    else if (k == "--out-dir") o.out_dir = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (argc % 2 != 1) throw std::invalid_argument("options take one value");
  return o;
}

// One pool worker (plus the calling thread, which helps run every
// parallel_for). On the 4-vCPU host the baseline was measured on, a 4-worker
// pool made the same run take anywhere from 1x to 3x as long — the cost of
// waking workers on other vCPUs swings with host load — and was no faster on
// table1_stream and slower on the other two workloads (hostbench/README.md).
constexpr std::size_t kPoolThreads = 1;
// Reconciliation tolerance: |Σ self − traced wall| ≤ this share of the
// traced wall.
constexpr double kSelfSumTolerance = 0.01;
// Stop starting epochs after this much loop wall time, whatever the targets,
// so a run on a slow host still ends in time.
constexpr double kLoopWallCapS = 120;

int main_impl(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // Set-up, several times; the last one is kept.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<ThreadPool> pool;
  for (int k = 0; k < o.setups; ++k) {
    w.reset();
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<ThreadPool>(kPoolThreads);
    w = make_workload(o.workload, o.seed, *pool);
    if (!w) {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    setup_s.push_back(now_s() - t0);
    generate_s.push_back(w->generate_s);
  }

  // The reference epoch: served and verified like the others, which fills
  // the reference cache, but not timed. Peak RSS then covers the measured
  // epochs only.
  Tracer tr;
  Xoshiro256 order_rng(o.seed + 0x9e3779b97f4a7c15ULL);  // own stream
  std::int64_t call_id = 0;
  const auto next_epoch = [&](bool traced) {
    return run_epoch(*w, order_rng, tr, traced, call_id, o.corrupt_call);
  };
  std::vector<Epoch> epochs{next_epoch(false)};
  reset_peak_rss();
  double on_clock = 0;
  const double loop_start = now_s();
  for (;;) {
    const double elapsed = now_s() - loop_start;
    if (elapsed > kLoopWallCapS) break;
    if (o.trace) {
      if (epochs.size() > 1 && elapsed >= o.seconds) break;
      epochs.push_back(next_epoch(false));
      epochs.push_back(next_epoch(true));
    } else {
      if (on_clock >= o.seconds &&
          static_cast<std::int64_t>(epochs.size() - 1) *
                  static_cast<std::int64_t>(w->epoch_calls()) >=
              o.min_calls) {
        break;
      }
      epochs.push_back(next_epoch(false));
      on_clock += epochs.back().on_clock_s;
    }
  }

  std::fprintf(stderr,
              "hostbench: %s seed %llu: %zu epochs, %lld calls, %.3f s on "
              "the clock, %.3f s loop wall, set-up median %.3f s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              epochs.size(), static_cast<long long>(call_id), on_clock,
              now_s() - loop_start, median(setup_s));

  std::int64_t attempted = 0;
  std::int64_t verified = 0;
  bool replay_same = true;
  for (const Epoch& e : epochs) {
    attempted += e.counts.requests;
    verified += e.verified;
    replay_same = replay_same && e.replay_same;
  }
  const std::int64_t failed = attempted - verified;
  bool correct = failed == 0 && replay_same;
  if (!replay_same) {
    std::fprintf(stderr, "hostbench: a stage replay differs from the served "
                         "product or threshold\n");
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    // Every epoch serves the same calls, in another order; a call's latency
    // is its fastest repetition. Host interference (CPU steal on a shared
    // VM) only ever adds time, and fastest repetitions varied less between
    // runs than pooled percentiles did (hostbench/README.md).
    const auto measured = std::span(epochs).subspan(1);
    std::map<std::size_t, double> fastest_by_key;
    for (const Epoch& e : measured) {
      for (std::size_t i = 0; i < e.keys.size(); ++i) {
        const auto [it, fresh] =
            fastest_by_key.try_emplace(e.keys[i], e.latencies_s[i]);
        if (!fresh) it->second = std::min(it->second, e.latencies_s[i]);
      }
    }
    std::vector<double> fastest;
    double epoch_s = 0;
    for (const auto& [key, t] : fastest_by_key) {
      fastest.push_back(t);
      epoch_s += t;
    }
    const double verified_frac =
        static_cast<double>(verified) / static_cast<double>(attempted);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"requests_per_s",
         static_cast<double>(measured[0].counts.requests) * verified_frac /
             epoch_s,
         "1/s"},
        {"sweeps_per_s", static_cast<double>(fastest.size()) / epoch_s, "1/s"},
        {"latency_p50_ms", quantile(fastest, 0.5) * 1e3, "ms"},
        {"latency_p90_ms", quantile(fastest, 0.9) * 1e3, "ms"},
        {"verified_frac", verified_frac, "fraction"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    // Counts come from the first traced epoch, which is the same epoch (same
    // seed, same call order) in every run with this seed. Every traced
    // epoch must repeat the order-independent work counts exactly.
    const Epoch* first = nullptr;
    double traced_wall = 0, self_sum = 0, traced_calls = 0, untraced_calls = 0;
    double untraced_cpu = 0;
    std::vector<double> faults;
    for (const Epoch& e : std::span(epochs).subspan(1)) {
      if (e.traced) {
        if (first == nullptr) first = &e;
        if (e.counts.work() != first->counts.work()) {
          std::fprintf(stderr, "hostbench: traced epochs disagree on work\n");
          correct = false;
        }
        traced_wall += e.wall_s;
        traced_calls += e.on_clock_s;
        for (const auto& [name, l] : e.layers) self_sum += l.self_s;
      } else {
        untraced_calls += e.on_clock_s;
        untraced_cpu += e.cpu_s;
        faults.push_back(static_cast<double>(e.minor_faults));
      }
    }
    const double self_err = std::abs(self_sum - traced_wall) / traced_wall;
    if (self_err > kSelfSumTolerance) {
      std::fprintf(stderr, "hostbench: span self times sum to %.6f s, traced "
                           "wall %.6f s\n", self_sum, traced_wall);
      correct = false;
    }
    const Counts& c = first->counts;
    const auto ratio = [](double num_, double den) {
      return den > 0 ? num_ / den : 0.0;
    };
    const auto stage_s = [](const Epoch& e) {
      return busy(e, "core.plan") + busy(e, "spgemm.phase2") +
             busy(e, "sched.phase3") + busy(e, "primitives.merge");
    };
    const bool served = span_count(*first, "runtime.drain") > 0;
    metrics = {
        {"gen.generate_s", median(generate_s), "s"},
        {"core.plan_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "core.plan"); }), "s"},
        {"core.plan_calls",
         static_cast<double>(span_count(*first, "core.plan")), "count"},
        {"core.threshold_pick_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "core.threshold_pick"); }), "s"},
        {"core.baselines_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "core.baselines"); }), "s"},
        {"spgemm.phase2_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "spgemm.phase2"); }), "s"},
        {"spgemm.flops", static_cast<double>(c.flops), "count"},
        {"spgemm.tuples", static_cast<double>(c.tuples), "count"},
        {"sched.phase3_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "sched.phase3"); }), "s"},
        {"sched.cpu_units", static_cast<double>(c.cpu_units), "count"},
        {"sched.gpu_units", static_cast<double>(c.gpu_units), "count"},
        {"primitives.merge_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "primitives.merge"); }), "s"},
        {"primitives.tuples_in", static_cast<double>(c.tuples_in), "count"},
        {"primitives.tuples_out", static_cast<double>(c.tuples_out), "count"},
        {"primitives.merge_mtuples_per_s",
         traced_median(epochs, [&](const Epoch& e) {
           return ratio(static_cast<double>(e.counts.tuples_in),
                        busy(e, "primitives.merge")) * 1e-6; }), "Mtuples/s"},
        {"primitives.combine_ratio",
         ratio(static_cast<double>(c.tuples_out),
               static_cast<double>(c.tuples_in)), "ratio"},
        {"runtime.drain_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "runtime.drain"); }), "s"},
        {"runtime.self_s",
         served ? traced_median(epochs, [&](const Epoch& e) {
           return busy(e, "runtime.drain") - stage_s(e); }) : 0.0, "s"},
        {"runtime.plan_cache_hit_ratio",
         ratio(static_cast<double>(c.plan_hits),
               served ? static_cast<double>(c.requests) : 0.0), "ratio"},
        {"runtime.workspace_reuse_ratio",
         ratio(static_cast<double>(c.ws_reuses),
               static_cast<double>(c.ws_acquires)), "ratio"},
        {"runtime.retries", static_cast<double>(c.retries), "count"},
        {"runtime.degraded", static_cast<double>(c.degraded), "count"},
        {"runtime.wave_deduped_uploads",
         static_cast<double>(c.deduped_uploads), "count"},
        {"obs.report_render_s", traced_median(epochs, [](const Epoch& e) {
           return busy(e, "obs.report_render"); }), "s"},
        {"obs.report_bytes", static_cast<double>(c.report_bytes), "bytes"},
        {"util.cpu_per_wall", ratio(untraced_cpu, untraced_calls), "ratio"},
        {"util.minor_faults", median(faults), "count"},
        {"device.sim_makespan_ms", c.sim_makespan_s * 1e3, "ms"},
        {"device.sim_cpu_busy_ms", c.sim_cpu_busy_s * 1e3, "ms"},
        {"device.sim_gpu_busy_ms", c.sim_gpu_busy_s * 1e3, "ms"},
        {"trace.wall_s", traced_median(epochs, [](const Epoch& e) {
           return e.wall_s; }), "s"},
        {"trace.overhead_frac", ratio(traced_calls, untraced_calls) - 1.0,
         "ratio"},
        {"trace.self_sum_error_frac", self_err, "ratio"},
    };
    write_trace_files(o.out_dir, o.workload, o.seed, tr, epochs, traced_wall,
                      self_sum);
  }

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
}
