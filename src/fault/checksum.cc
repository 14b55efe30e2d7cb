#include "fault/checksum.hpp"

namespace hh {
namespace {

constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

template <typename T>
std::uint64_t chain(const std::vector<T>& v, std::uint64_t seed) {
  return fnv1a64(v.data(), v.size() * sizeof(T), seed);
}

std::uint64_t chain_scalar(std::uint64_t x, std::uint64_t seed) {
  return fnv1a64(&x, sizeof(x), seed);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

std::uint64_t matrix_checksum(const CsrMatrix& m) {
  std::uint64_t h = kFnv1aOffset;
  h = chain_scalar(static_cast<std::uint64_t>(m.rows), h);
  h = chain_scalar(static_cast<std::uint64_t>(m.cols), h);
  h = chain(m.indptr, h);
  h = chain(m.indices, h);
  h = chain(m.values, h);
  return h;
}

}  // namespace hh
