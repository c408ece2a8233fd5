#include "arrival/tabulated.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace autra::arrival {

TabulatedRate::TabulatedRate(std::vector<double> table)
    : table_(std::move(table)) {
  if (table_.empty()) {
    throw std::invalid_argument("TabulatedRate: empty rate table");
  }
  for (double r : table_) {
    if (!std::isfinite(r) || r < 0.0) {
      throw std::invalid_argument(
          "TabulatedRate: rates must be finite and non-negative");
    }
  }
}

}  // namespace autra::arrival
