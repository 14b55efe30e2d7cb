// End-to-end checksums over shipped buffers.
//
// Every operand uploaded to the device carries an FNV-1a digest of its raw
// bytes. The service computes the digest host-side before a transfer and
// verifies it after: a corrupted PCIe transfer (fault/fault.hpp) fails
// verification and forces a re-send, and the device-side copy is dropped
// from the residency memo so later requests cannot silently reuse a damaged
// operand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sparse/csr.hpp"

namespace hh {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over raw bytes; chainable via the seed parameter.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = kFnv1aOffset);

// Field-by-field chaining over scalars: each value is digested from its own
// bytes, so no struct padding ever enters the stream. Shared by the shard
// snapshot checksum (shard/snapshot.cc) and the workload flight recorder
// (obs/record.cc), which must agree on the mixing discipline so a record
// verified on parse is the record that was written.
inline void checksum_mix(std::uint64_t& h, std::uint64_t v) {
  h = fnv1a64(&v, sizeof(v), h);
}
inline void checksum_mix_i64(std::uint64_t& h, std::int64_t v) {
  checksum_mix(h, static_cast<std::uint64_t>(v));
}
inline void checksum_mix_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  checksum_mix(h, bits);
}

/// Digest of a CSR operand as shipped (indptr ‖ indices ‖ values + shape).
std::uint64_t matrix_checksum(const CsrMatrix& m);

}  // namespace hh
