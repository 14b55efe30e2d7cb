#include "obs/record.hpp"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>

#include "fault/checksum.hpp"
#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

void mix_str(std::uint64_t& h, const std::string& s) {
  checksum_mix(h, s.size());
  h = fnv1a64(s.data(), s.size(), h);
}

void mix_sig(std::uint64_t& h, const MatrixSignature& s) {
  checksum_mix_i64(h, s.rows);
  checksum_mix_i64(h, s.cols);
  checksum_mix_i64(h, s.nnz);
  checksum_mix_i64(h, s.alpha_milli);
  checksum_mix(h, s.degree_digest);
}

[[noreturn]] void fail(std::size_t lineno, const std::string& why) {
  std::ostringstream os;
  os << "workload log line " << lineno << ": " << why;
  throw ParseError(os.str());
}

// Minimal flat-JSON object reader for the exact shape this module writes:
// one level deep, string / number / bool values. Raw value text is kept so
// integer fields never round-trip through a double.
class FlatJson {
 public:
  FlatJson(const std::string& line, std::size_t lineno) : lineno_(lineno) {
    std::size_t i = 0;
    skip_ws(line, i);
    if (i >= line.size() || line[i] != '{') fail(lineno_, "expected '{'");
    ++i;
    skip_ws(line, i);
    if (i < line.size() && line[i] == '}') {
      ++i;
    } else {
      while (true) {
        const std::string key = parse_string(line, i);
        skip_ws(line, i);
        if (i >= line.size() || line[i] != ':') {
          fail(lineno_, "expected ':' after key '" + key + "'");
        }
        ++i;
        skip_ws(line, i);
        Value v;
        if (i < line.size() && line[i] == '"') {
          v.text = parse_string(line, i);
          v.is_string = true;
        } else {
          const std::size_t start = i;
          while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
          v.text = line.substr(start, i - start);
          while (!v.text.empty() && (v.text.back() == ' ')) v.text.pop_back();
          if (v.text.empty()) fail(lineno_, "empty value for '" + key + "'");
        }
        kv_.emplace(key, std::move(v));
        skip_ws(line, i);
        if (i < line.size() && line[i] == ',') {
          ++i;
          skip_ws(line, i);
          continue;
        }
        if (i < line.size() && line[i] == '}') {
          ++i;
          break;
        }
        fail(lineno_, "expected ',' or '}'");
      }
    }
    skip_ws(line, i);
    if (i != line.size()) fail(lineno_, "trailing characters after object");
  }

  std::uint64_t u64(const char* key) const {
    const std::string& t = number(key);
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || t[0] == '-') {
      fail(lineno_, std::string("field '") + key + "' is not a u64: " + t);
    }
    return static_cast<std::uint64_t>(v);
  }

  std::int64_t i64(const char* key) const {
    const std::string& t = number(key);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      fail(lineno_, std::string("field '") + key + "' is not an i64: " + t);
    }
    return static_cast<std::int64_t>(v);
  }

  double f64(const char* key) const {
    const std::string& t = number(key);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
      fail(lineno_, std::string("field '") + key + "' is not a number: " + t);
    }
    return v;
  }

  bool boolean(const char* key) const {
    const Value& v = get(key);
    if (v.is_string || (v.text != "true" && v.text != "false")) {
      fail(lineno_, std::string("field '") + key + "' is not a bool");
    }
    return v.text == "true";
  }

  std::string str(const char* key) const {
    const Value& v = get(key);
    if (!v.is_string) {
      fail(lineno_, std::string("field '") + key + "' is not a string");
    }
    return v.text;
  }

 private:
  struct Value {
    std::string text;  // strings: already unescaped
    bool is_string = false;
  };

  static void skip_ws(const std::string& s, std::size_t& i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }

  std::string parse_string(const std::string& s, std::size_t& i) const {
    if (i >= s.size() || s[i] != '"') fail(lineno_, "expected '\"'");
    ++i;
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) fail(lineno_, "dangling escape in string");
        const char c = s[i];
        if (c == '"' || c == '\\' || c == '/') {
          out.push_back(c);
        } else if (c == 'u') {
          if (i + 4 >= s.size()) fail(lineno_, "truncated \\u escape");
          const std::string hex = s.substr(i + 1, 4);
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == nullptr || *end != '\0' || code < 0 || code > 0x7f) {
            fail(lineno_, "unsupported \\u escape: " + hex);
          }
          out.push_back(static_cast<char>(code));
          i += 4;
        } else {
          fail(lineno_, std::string("unsupported escape '\\") + c + "'");
        }
      } else {
        out.push_back(s[i]);
      }
      ++i;
    }
    if (i >= s.size()) fail(lineno_, "unterminated string");
    ++i;  // closing quote
    return out;
  }

  const Value& get(const char* key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) {
      fail(lineno_, std::string("missing field '") + key + "'");
    }
    return it->second;
  }

  const std::string& number(const char* key) const {
    const Value& v = get(key);
    if (v.is_string) {
      fail(lineno_, std::string("field '") + key + "' is not a number");
    }
    return v.text;
  }

  std::size_t lineno_;
  std::map<std::string, Value> kv_;
};

MatrixSignature parse_sig(const FlatJson& j, const char* prefix) {
  const auto key = [&](const char* f) { return std::string(prefix) + f; };
  MatrixSignature s;
  s.rows = static_cast<index_t>(j.i64(key("_rows").c_str()));
  s.cols = static_cast<index_t>(j.i64(key("_cols").c_str()));
  s.nnz = j.i64(key("_nnz").c_str());
  s.alpha_milli = j.i64(key("_alpha_milli").c_str());
  s.degree_digest = j.u64(key("_degree_digest").c_str());
  return s;
}

void append_sig(std::ostringstream& os, const char* prefix,
                const MatrixSignature& s) {
  os << "\"" << prefix << "_rows\":" << s.rows << ",\"" << prefix
     << "_cols\":" << s.cols << ",\"" << prefix << "_nnz\":" << s.nnz
     << ",\"" << prefix << "_alpha_milli\":" << s.alpha_milli << ",\""
     << prefix << "_degree_digest\":" << s.degree_digest;
}

}  // namespace

std::uint64_t WorkloadRecord::payload_checksum(std::uint64_t seed) const {
  std::uint64_t h = seed;
  checksum_mix(h, id);
  checksum_mix(h, drain);
  checksum_mix_i64(h, shard);
  mix_str(h, label);
  mix_sig(h, a);
  mix_sig(h, b);
  checksum_mix_f64(h, submit_s);
  checksum_mix_f64(h, deadline_s);
  checksum_mix_i64(h, pin_ta);
  checksum_mix_i64(h, pin_tb);
  checksum_mix_i64(h, ta);
  checksum_mix_i64(h, tb);
  mix_str(h, status);
  checksum_mix(h, cache_hit ? 1u : 0u);
  checksum_mix(h, degraded ? 1u : 0u);
  checksum_mix(h, deadline_missed ? 1u : 0u);
  checksum_mix_f64(h, latency_s);
  checksum_mix_f64(h, queue_wait_s);
  checksum_mix_f64(h, phase1_s);
  checksum_mix_f64(h, phase2_s);
  checksum_mix_f64(h, phase3_s);
  checksum_mix_f64(h, phase4_s);
  checksum_mix_f64(h, tx_in_s);
  checksum_mix_f64(h, tx_out_s);
  checksum_mix_i64(h, output_nnz);
  checksum_mix_i64(h, faults);
  checksum_mix_i64(h, retries);
  return h;
}

std::string WorkloadRecord::to_jsonl() const {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"drain\":" << drain << ",\"shard\":" << shard
     << ",\"label\":\"";
  append_escaped(os, label);
  os << "\",";
  append_sig(os, "a", a);
  os << ",";
  append_sig(os, "b", b);
  os << ",\"submit_s\":" << jexact(submit_s)
     << ",\"deadline_s\":" << jexact(deadline_s) << ",\"pin_ta\":" << pin_ta
     << ",\"pin_tb\":" << pin_tb << ",\"ta\":" << ta << ",\"tb\":" << tb
     << ",\"status\":\"";
  append_escaped(os, status);
  os << "\",\"cache_hit\":" << jbool(cache_hit)
     << ",\"degraded\":" << jbool(degraded)
     << ",\"deadline_missed\":" << jbool(deadline_missed)
     << ",\"latency_s\":" << jexact(latency_s)
     << ",\"queue_wait_s\":" << jexact(queue_wait_s)
     << ",\"phase1_s\":" << jexact(phase1_s)
     << ",\"phase2_s\":" << jexact(phase2_s)
     << ",\"phase3_s\":" << jexact(phase3_s)
     << ",\"phase4_s\":" << jexact(phase4_s)
     << ",\"tx_in_s\":" << jexact(tx_in_s)
     << ",\"tx_out_s\":" << jexact(tx_out_s)
     << ",\"output_nnz\":" << output_nnz << ",\"faults\":" << faults
     << ",\"retries\":" << retries << ",\"checksum\":" << checksum << "}";
  return os.str();
}

std::string WorkloadLog::to_jsonl() const {
  std::ostringstream os;
  os << "{\"hh_workload_log\":true,\"version\":" << version
     << ",\"chain_seed\":" << chain_seed
     << ",\"total_appended\":" << total_appended
     << ",\"rotations\":" << rotations << ",\"records\":" << records.size()
     << "}\n";
  for (const WorkloadRecord& r : records) os << r.to_jsonl() << "\n";
  return os.str();
}

WorkloadLog parse_workload_log(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (nl > pos) lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.empty()) {
    throw ParseError("workload log is empty (no header line)");
  }

  const FlatJson header(lines[0], 1);
  if (!header.boolean("hh_workload_log")) {
    fail(1, "not a workload log header");
  }
  WorkloadLog log;
  log.version = static_cast<int>(header.i64("version"));
  if (log.version != kWorkloadLogVersion) {
    std::ostringstream os;
    os << "unsupported workload log version " << log.version << " (expected "
       << kWorkloadLogVersion << ")";
    fail(1, os.str());
  }
  log.chain_seed = header.u64("chain_seed");
  log.total_appended = header.u64("total_appended");
  log.rotations = header.u64("rotations");
  const std::uint64_t declared = header.u64("records");
  if (declared != lines.size() - 1) {
    std::ostringstream os;
    os << "header declares " << declared << " records but the log has "
       << lines.size() - 1 << " (truncated or padded?)";
    fail(1, os.str());
  }

  std::uint64_t prev = log.chain_seed;
  log.records.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const FlatJson j(lines[i], i + 1);
    WorkloadRecord r;
    r.id = static_cast<std::size_t>(j.u64("id"));
    r.drain = j.u64("drain");
    r.shard = j.i64("shard");
    r.label = j.str("label");
    r.a = parse_sig(j, "a");
    r.b = parse_sig(j, "b");
    r.submit_s = j.f64("submit_s");
    r.deadline_s = j.f64("deadline_s");
    r.pin_ta = j.i64("pin_ta");
    r.pin_tb = j.i64("pin_tb");
    r.ta = j.i64("ta");
    r.tb = j.i64("tb");
    r.status = j.str("status");
    r.cache_hit = j.boolean("cache_hit");
    r.degraded = j.boolean("degraded");
    r.deadline_missed = j.boolean("deadline_missed");
    r.latency_s = j.f64("latency_s");
    r.queue_wait_s = j.f64("queue_wait_s");
    r.phase1_s = j.f64("phase1_s");
    r.phase2_s = j.f64("phase2_s");
    r.phase3_s = j.f64("phase3_s");
    r.phase4_s = j.f64("phase4_s");
    r.tx_in_s = j.f64("tx_in_s");
    r.tx_out_s = j.f64("tx_out_s");
    r.output_nnz = j.i64("output_nnz");
    r.faults = j.i64("faults");
    r.retries = j.i64("retries");
    r.checksum = j.u64("checksum");
    const std::uint64_t want = r.payload_checksum(prev);
    if (want != r.checksum) {
      std::ostringstream os;
      os << "record checksum mismatch (stored " << r.checksum
         << ", recomputed " << want << "): tampered, edited or reordered";
      fail(i + 1, os.str());
    }
    prev = r.checksum;
    log.records.push_back(std::move(r));
  }
  return log;
}

}  // namespace hh
