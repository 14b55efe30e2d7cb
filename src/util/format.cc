#include "util/format.hpp"

#include <cstdio>

namespace hh {

std::string ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string jnum(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

std::string jexact(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

const char* jbool(bool b) { return b ? "true" : "false"; }

void append_escaped(std::ostringstream& os, const std::string& s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      os << buf;
    } else {
      os << c;
    }
  }
}

}  // namespace hh
