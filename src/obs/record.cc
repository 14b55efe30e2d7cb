#include "obs/record.hpp"

#include <sstream>

#include "fault/checksum.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
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

std::string line_context(std::size_t lineno) {
  return "workload log line " + std::to_string(lineno);
}

[[noreturn]] void fail(std::size_t lineno, const std::string& why) {
  throw ParseError(line_context(lineno) + ": " + why);
}

MatrixSignature parse_sig(const JsonValue& j, const std::string& prefix) {
  MatrixSignature s;
  s.rows = static_cast<index_t>(j.at(prefix + "_rows").i64());
  s.cols = static_cast<index_t>(j.at(prefix + "_cols").i64());
  s.nnz = j.at(prefix + "_nnz").i64();
  s.alpha_milli = j.at(prefix + "_alpha_milli").i64();
  s.degree_digest = j.at(prefix + "_degree_digest").u64();
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

  const JsonValue header = parse_json(lines[0], line_context(1));
  if (!header.at("hh_workload_log").boolean()) {
    fail(1, "not a workload log header");
  }
  WorkloadLog log;
  const std::int64_t version = header.at("version").i64();
  if (version != kWorkloadLogVersion) {
    std::ostringstream os;
    os << "unsupported workload log version " << version << " (expected "
       << kWorkloadLogVersion << ")";
    fail(1, os.str());
  }
  log.chain_seed = header.at("chain_seed").u64();
  log.total_appended = header.at("total_appended").u64();
  log.rotations = header.at("rotations").u64();
  const std::uint64_t declared = header.at("records").u64();
  if (declared != lines.size() - 1) {
    std::ostringstream os;
    os << "header declares " << declared << " records but the log has "
       << lines.size() - 1 << " (truncated or padded?)";
    fail(1, os.str());
  }

  std::uint64_t prev = log.chain_seed;
  log.records.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue j = parse_json(lines[i], line_context(i + 1));
    WorkloadRecord r;
    r.id = static_cast<std::size_t>(j.at("id").u64());
    r.drain = j.at("drain").u64();
    r.shard = j.at("shard").i64();
    r.label = j.at("label").str();
    r.a = parse_sig(j, "a");
    r.b = parse_sig(j, "b");
    r.submit_s = j.at("submit_s").f64();
    r.deadline_s = j.at("deadline_s").f64();
    r.pin_ta = j.at("pin_ta").i64();
    r.pin_tb = j.at("pin_tb").i64();
    r.ta = j.at("ta").i64();
    r.tb = j.at("tb").i64();
    r.status = j.at("status").str();
    r.cache_hit = j.at("cache_hit").boolean();
    r.degraded = j.at("degraded").boolean();
    r.deadline_missed = j.at("deadline_missed").boolean();
    r.latency_s = j.at("latency_s").f64();
    r.queue_wait_s = j.at("queue_wait_s").f64();
    r.phase1_s = j.at("phase1_s").f64();
    r.phase2_s = j.at("phase2_s").f64();
    r.phase3_s = j.at("phase3_s").f64();
    r.phase4_s = j.at("phase4_s").f64();
    r.tx_in_s = j.at("tx_in_s").f64();
    r.tx_out_s = j.at("tx_out_s").f64();
    r.output_nnz = j.at("output_nnz").i64();
    r.faults = j.at("faults").i64();
    r.retries = j.at("retries").i64();
    r.checksum = j.at("checksum").u64();
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
