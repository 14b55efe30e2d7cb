#include "tune/report.hpp"

#include <cstdio>
#include <sstream>

#include "util/format.hpp"

namespace hh {

std::string TuneReport::to_string() const {
  std::ostringstream os;
  if (!enabled) return "tuning: disabled\n";
  os << "tuning: " << decisions << " decisions, " << explorations
     << " explorations, " << promotions << " promotions, " << measurements
     << " measurements; " << entries_converged << "/" << entries.size()
     << " signatures converged\n";
  os << "  calibration:";
  for (const TuneCalibrationReport& c : calibration) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s x%.3f (%lld)%s", c.device.c_str(),
                  c.correction, static_cast<long long>(c.samples),
                  c.drift ? " DRIFT" : "");
    os << buf;
  }
  os << "\n";
  for (const TuneEntryReport& e : entries) {
    os << "  " << e.key << ": t " << e.analytic_t << " (analytic) -> "
       << e.incumbent_t << " v" << e.version << ", " << e.hits << " hits, "
       << e.explorations << " explored, " << e.promotions << " promoted"
       << (e.converged ? ", converged" : "") << "\n";
    for (const TuneVariantReport& v : e.variants) {
      os << "    t=" << v.t << ": best " << ms(v.best_s) << " over "
         << v.trials << " trial(s), predicted " << ms(v.predicted_s)
         << (v.t == e.incumbent_t ? "  <- incumbent" : "") << "\n";
    }
  }
  return os.str();
}

std::string TuneReport::to_json() const {
  std::ostringstream os;
  os << "{\"enabled\":" << jbool(enabled) << ",\"decisions\":" << decisions
     << ",\"explorations\":" << explorations
     << ",\"measurements\":" << measurements
     << ",\"promotions\":" << promotions
     << ",\"drift_events\":" << drift_events
     << ",\"entries_converged\":" << entries_converged << ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TuneEntryReport& e = entries[i];
    if (i > 0) os << ",";
    os << "{\"key\":\"" << e.key << "\",\"analytic_t\":" << e.analytic_t
       << ",\"incumbent_t\":" << e.incumbent_t << ",\"version\":" << e.version
       << ",\"hits\":" << e.hits << ",\"explorations\":" << e.explorations
       << ",\"promotions\":" << e.promotions
       << ",\"converged\":" << jbool(e.converged) << ",\"variants\":[";
    for (std::size_t k = 0; k < e.variants.size(); ++k) {
      const TuneVariantReport& v = e.variants[k];
      if (k > 0) os << ",";
      os << "{\"t\":" << v.t << ",\"trials\":" << v.trials
         << ",\"best_s\":" << jexact(v.best_s)
         << ",\"predicted_s\":" << jexact(v.predicted_s) << "}";
    }
    os << "]}";
  }
  os << "],\"calibration\":{";
  for (std::size_t i = 0; i < calibration.size(); ++i) {
    const TuneCalibrationReport& c = calibration[i];
    if (i > 0) os << ",";
    os << "\"" << c.device << "\":{\"samples\":" << c.samples
       << ",\"ratio\":" << jexact(c.ratio)
       << ",\"correction\":" << jexact(c.correction)
       << ",\"drift\":" << jbool(c.drift) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace hh
