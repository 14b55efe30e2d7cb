// Batched wave executor support: wave formation and wave accounting.
//
// A service under repeated-operand traffic (the dominant pattern the shard
// ring's signature affinity creates) pays redundant PCIe traffic and
// per-request kernel-launch overhead when every request is scheduled
// independently. The wave executor (SpgemmService::Config::wave,
// docs/runtime.md) groups drained requests that share an operand — the
// same CsrMatrix object — into waves:
//   - each distinct operand is uploaded once per wave and held under a
//     refcount until its last user finishes (cross-request residency dedup
//     with refcounted eviction);
//   - the wave's uploads coalesce into one contiguous H2D block reservation
//     (ResourceTimeline::block_start): the link latency is paid by the
//     lead transfer only (the `lead` flag of PcieChannel's transfer calls);
//   - same-wave Phase II GPU kernels are batched: the first healthy launch
//     pays the kernel-launch overhead, followers skip it (the `lead` flag of
//     GpuSim::kernel_attempt).
// Output bits never change: numeric work still executes host-side with the
// same decomposition, so every request stays bit-identical to the serial
// reference. The wave preamble is drain()'s only upload path: with
// `enabled == false` every request is a wave of one (max_requests == 1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hh {

/// Knobs of the batched wave executor (off by default).
struct WaveConfig {
  bool enabled = false;  // false = waves of one, whatever max_requests says
  // Requests per wave. The cap is strict — max_requests == 1 degenerates to
  // single-request waves, the schedule of a disabled executor.
  // 0 = unbounded.
  std::size_t max_requests = 16;
  // Distinct operands (by pointer) per wave: bounds the device
  // memory a wave pins. A request whose operands are all already in the
  // wave adds no pressure and joins past this cap. 0 = unbounded.
  std::size_t max_operands = 8;
};

/// Per-drain wave accounting, reported in BatchReport (and aggregated per
/// shard).
struct WaveStats {
  std::int64_t waves = 0;
  std::int64_t wave_requests = 0;      // requests executed through waves
  std::int64_t uploads = 0;            // distinct-operand uploads performed
  std::int64_t deduped_uploads = 0;    // same-wave uses served by dedup
  std::int64_t coalesced_uploads = 0;  // uploads riding a shared reservation
                                       // behind the lead (latency skipped)
  std::int64_t batched_launches = 0;   // GPU launches that skipped overhead
  std::int64_t evictions = 0;          // refcount-zero residency evictions
  std::int64_t h2d_bytes = 0;          // payload bytes of successful uploads

  void accumulate(const WaveStats& o);
  std::string to_json() const;
};

/// Half-open request-index range [begin, end) of one wave, in submit order.
struct WaveBounds {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Deterministic wave formation over the drain queue, in submit order.
/// `operand_ids[i]` are request i's operands as dense ids (two entries; a
/// self product repeats the same id). A request joins the current wave when
/// the wave is empty, or when it fits the request cap and either introduces
/// no new operand or keeps the distinct-operand count within the operand
/// cap; otherwise it starts a new wave. Every request lands in exactly one
/// wave and waves partition [0, n) contiguously.
std::vector<WaveBounds> form_waves(
    const std::vector<std::array<std::uint32_t, 2>>& operand_ids,
    std::size_t max_requests, std::size_t max_operands);

}  // namespace hh
