// Deterministic text formatting shared by every report, metric and log
// renderer. Each helper fixes one printf format, so the same value renders
// to the same bytes wherever it appears.
#pragma once

#include <sstream>
#include <string>

namespace hh {

/// Seconds as "%.3f ms" — the human-readable duration of to_string() views.
std::string ms(double seconds);

/// "%.9g": the default JSON number of reports and metrics.
std::string jnum(double x);

/// "%.17g": round-trips every double bit for bit through strtod — for
/// formats that are parsed back (workload logs, perf baselines, tuner and
/// calibration state).
std::string jexact(double x);

const char* jbool(bool b);

/// Append `s` as the body of a JSON string: '"' and '\\' are backslash
/// escaped, control characters become \u00XX.
void append_escaped(std::ostringstream& os, const std::string& s);

}  // namespace hh
