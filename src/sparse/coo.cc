#include "sparse/coo.hpp"

#include "util/check.hpp"

namespace hh {

void CooMatrix::validate() const {
  HH_CHECK(r.size() == c.size() && c.size() == v.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    HH_CHECK_MSG(r[i] >= 0 && r[i] < rows, "COO row out of range at " << i);
    HH_CHECK_MSG(c[i] >= 0 && c[i] < cols, "COO col out of range at " << i);
  }
}

}  // namespace hh
