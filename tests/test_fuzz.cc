// Seeded mutation fuzzer over every parser of outside input: the JSON
// reader, workload logs, perf baselines and MatrixMarket files. Each seed
// input is mutated thousands of times (bit flips, byte inserts and deletes,
// truncation, digit swaps) with a fixed PRNG seed, and every mutant is fed
// to every parser. MatrixMarket files also get size lines inflated far past
// the reader's dimension limit. A parser must either accept the mutant or
// throw ParseError; any other exception fails the test, and a crash or a
// sanitizer report fails it under the asan-debug and ubsan-debug presets.
// It is gtest-driven so that it runs without a libFuzzer toolchain.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "device/platform.hpp"
#include "obs/perf_baseline.hpp"
#include "obs/record.hpp"
#include "obs/recorder.hpp"
#include "runtime/service.hpp"
#include "sparse/mm_io.hpp"
#include "test_util.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace hh {
namespace {

constexpr int kMutantsPerSeed = 3000;
// Every byte of the deep-nesting seed is alike, so a third as many mutants
// cover it; each costs ~1 ms, most of it unwinding 64 levels of parser.
constexpr int kDeepNestingMutants = 1000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A workload log recorded from a real drain: self and cross products, one
// under a deadline it misses, with labels that need escaping.
std::string recorded_workload_log() {
  const CsrMatrix a = test::random_csr(48, 48, 0.08, 1);
  const CsrMatrix b = test::random_csr(48, 48, 0.12, 2);
  HeteroPlatform platform;
  ThreadPool pool(1);
  WorkloadRecorder recorder;
  SpgemmService::Config cfg;
  cfg.recorder = &recorder;
  SpgemmService service(platform, pool, cfg);
  service.submit({&a, nullptr, {}, "self \"a\""});
  service.submit({&a, &b, {}, "cross\\ab\n"});
  service.submit({&b, nullptr, {}, "late", 1e-12});
  service.drain();
  service.submit({&b, &a, {}, "second drain"});
  service.drain();
  return recorder.log().to_jsonl();
}

std::string small_matrix_market() {
  std::ostringstream os;
  write_matrix_market(os, test::random_csr(6, 5, 0.3, 3));
  return os.str();
}

// One to four mutations of `seed`.
std::string mutate(const std::string& seed, Xoshiro256& rng) {
  std::string s = seed;
  const int n = 1 + static_cast<int>(rng.below(4));
  for (int k = 0; k < n; ++k) {
    const std::size_t pos = s.empty() ? 0 : rng.below(s.size());
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << rng.below(8)));
        }
        break;
      case 1: {  // byte insert, biased towards bytes the grammars care about
        static const std::string kBytes = "{}[]:,\"\\-+.eE0123456789 \n%";
        const char c = rng.below(2) == 0
                           ? kBytes[rng.below(kBytes.size())]
                           : static_cast<char>(rng.below(256));
        s.insert(pos, 1, c);
        break;
      }
      case 2:  // byte delete
        if (!s.empty()) s.erase(pos, 1);
        break;
      case 3:  // truncation
        s.resize(pos);
        break;
      default: {  // digit swap: the next digit at or after pos
        const std::size_t d = s.find_first_of("0123456789", pos);
        if (d != std::string::npos) {
          s[d] = static_cast<char>('0' + rng.below(10));
        }
      }
    }
  }
  return s;
}

// `mtx` with one field of its size line (the first line after the banner
// that is not a comment) replaced by a count of 10 to 25 digits: at least
// 10^9, far past kMaxMatrixMarketDim and the entries a small file holds.
std::string inflate_size_line(const std::string& mtx, Xoshiro256& rng) {
  std::size_t begin = mtx.find('\n');
  while (begin != std::string::npos && begin + 1 < mtx.size() &&
         mtx[begin + 1] == '%') {
    begin = mtx.find('\n', begin + 1);
  }
  if (begin == std::string::npos) return mtx;
  ++begin;
  const std::size_t end = std::min(mtx.find('\n', begin), mtx.size());
  std::istringstream line(mtx.substr(begin, end - begin));
  std::vector<std::string> fields;
  for (std::string f; line >> f;) fields.push_back(f);
  if (fields.empty()) return mtx;
  std::string& field = fields[rng.below(fields.size())];
  field = std::to_string(1 + rng.below(9));
  for (auto d = 9 + rng.below(16); d > 0; --d) {
    field += static_cast<char>('0' + rng.below(10));
  }
  std::string size_line;
  for (const std::string& f : fields) {
    size_line += (size_line.empty() ? "" : " ") + f;
  }
  return mtx.substr(0, begin) + size_line + mtx.substr(end);
}

// Runs `parse` on `input`; returns false (after reporting) if it threw
// anything but ParseError.
template <typename Parse>
bool parses_or_rejects(const char* parser, const std::string& input,
                       Parse parse) {
  try {
    parse(input);
  } catch (const ParseError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << parser << " threw a non-ParseError (" << e.what()
                  << ") on input:\n" << input;
    return false;
  } catch (...) {
    ADD_FAILURE() << parser << " threw a non-exception on input:\n" << input;
    return false;
  }
  return true;
}

bool every_parser_survives(const std::string& input) {
  const auto json = [](const std::string& s) { parse_json(s, "fuzz"); };
  const auto log = [](const std::string& s) { parse_workload_log(s); };
  const auto baselines = [](const std::string& s) { parse_perf_baselines(s); };
  const auto matrix = [](const std::string& s) {
    std::istringstream in(s);
    read_matrix_market(in);
  };
  return parses_or_rejects("parse_json", input, json) &&
         parses_or_rejects("parse_workload_log", input, log) &&
         parses_or_rejects("parse_perf_baselines", input, baselines) &&
         parses_or_rejects("read_matrix_market", input, matrix);
}

void fuzz(const std::string& seed, std::uint64_t rng_seed,
          int mutants = kMutantsPerSeed) {
  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < mutants; ++i) {
    if (!every_parser_survives(mutate(seed, rng))) return;
  }
}

TEST(InputFuzz, RecordedWorkloadLog) {
  const std::string seed = recorded_workload_log();
  ASSERT_EQ(parse_workload_log(seed).records.size(), 4u);
  fuzz(seed, 1);
}

TEST(InputFuzz, CommittedPerfBaselines) {
  const std::string seed =
      read_file(HH_SOURCE_DIR "/bench/baselines/runtime_throughput.json");
  ASSERT_FALSE(parse_perf_baselines(seed).empty());
  fuzz(seed, 2);
}

TEST(InputFuzz, SmallMatrixMarketFile) {
  const std::string seed = small_matrix_market();
  std::istringstream in(seed);
  ASSERT_EQ(read_matrix_market(in).rows, 6);
  fuzz(seed, 3);
}

TEST(InputFuzz, InflatedMatrixMarketSizeLine) {
  // Each inflated size line of the clean file is a ParseError, never an
  // allocation sized from the claim.
  const std::string seed = small_matrix_market();
  Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    const std::string mutant = inflate_size_line(seed, rng);
    std::istringstream in(mutant);
    EXPECT_THROW(read_matrix_market(in), ParseError) << mutant;
  }
  // Mutated files with an inflated size line go to every parser.
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    if (!every_parser_survives(inflate_size_line(mutate(seed, rng), rng))) {
      return;
    }
  }
}

TEST(InputFuzz, DeepNesting) {
  const std::string seed(100000, '[');
  ASSERT_THROW(parse_json(seed, "fuzz"), ParseError);
  fuzz(seed, 4, kDeepNestingMutants);
}

}  // namespace
}  // namespace hh
