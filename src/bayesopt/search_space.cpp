#include "bayesopt/search_space.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace autra::bo {

void ConfigBlock::push_back(std::span<const int> c) {
  if (c.size() != dims_) {
    throw std::invalid_argument("ConfigBlock::push_back: wrong dimension");
  }
  data_.insert(data_.end(), c.begin(), c.end());
}

void ConfigBlock::append(const ConfigBlock& other) {
  if (other.dims_ != dims_) {
    throw std::invalid_argument("ConfigBlock::append: wrong dimension");
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
}

void ConfigBlock::sort_unique() {
  // LSD radix sort of the row indices: one stable counting pass per byte
  // of (value - column minimum) that varies, last column first, so the
  // final order is lexicographic. Small parallelism ranges take one pass
  // per column. std::sort with a lexicographic comparator gives the same
  // rows but its compares are branch-bound: chain8_diurnal's decisions
  // took about a fifth longer with it.
  const std::size_t n = size();
  if (n == 0) return;
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint32_t> key(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  for (std::size_t j = dims_; j-- > 0;) {
    int lo = data_[j];
    int hi = data_[j];
    for (std::size_t r = 1; r < n; ++r) {
      lo = std::min(lo, data_[r * dims_ + j]);
      hi = std::max(hi, data_[r * dims_ + j]);
    }
    // Offsets from the column minimum, as unsigned, order like the ints.
    for (std::size_t r = 0; r < n; ++r) {
      key[r] = static_cast<std::uint32_t>(data_[r * dims_ + j]) -
               static_cast<std::uint32_t>(lo);
    }
    const std::uint32_t span =
        static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
    for (unsigned shift = 0; shift < 32 && (span >> shift) != 0; shift += 8) {
      std::array<std::uint32_t, 257> start{};
      for (const std::uint32_t k : key) ++start[((k >> shift) & 0xffu) + 1];
      for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
      for (const std::uint32_t r : order) {
        next[start[(key[r] >> shift) & 0xffu]++] = r;
      }
      order.swap(next);
    }
  }
  std::vector<int> sorted(data_.size());
  std::size_t kept = 0;
  const int* prev = nullptr;
  for (const std::uint32_t r : order) {
    const int* row = data_.data() + r * dims_;
    if (prev != nullptr && std::equal(row, row + dims_, prev)) continue;
    std::copy(row, row + dims_, sorted.begin() + static_cast<std::ptrdiff_t>(
                                                    kept * dims_));
    prev = row;
    ++kept;
  }
  sorted.resize(kept * dims_);
  data_ = std::move(sorted);
}

bool ConfigBlock::sorted_contains(std::span<const int> c) const {
  std::size_t lo = 0;
  std::size_t hi = size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::span<const int> r = (*this)[mid];
    if (std::lexicographical_compare(r.begin(), r.end(), c.begin(), c.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == size()) return false;
  const std::span<const int> r = (*this)[lo];
  return std::equal(r.begin(), r.end(), c.begin(), c.end());
}

SearchSpace::SearchSpace(Config lower, Config upper)
    : lower_(std::move(lower)), upper_(std::move(upper)) {
  if (lower_.empty() || lower_.size() != upper_.size()) {
    throw std::invalid_argument("SearchSpace: bad bounds");
  }
  for (std::size_t i = 0; i < lower_.size(); ++i) {
    if (lower_[i] > upper_[i]) {
      throw std::invalid_argument("SearchSpace: lower > upper");
    }
  }
}

SearchSpace::SearchSpace(std::size_t dims, int lo, int hi)
    : SearchSpace(Config(dims, lo), Config(dims, hi)) {}

bool SearchSpace::contains(const Config& c) const noexcept {
  if (c.size() != dims()) return false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] < lower_[i] || c[i] > upper_[i]) return false;
  }
  return true;
}

Config SearchSpace::clamp(Config c) const noexcept {
  c.resize(dims(), 0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = std::clamp(c[i], lower_[i], upper_[i]);
  }
  return c;
}

std::uint64_t SearchSpace::cardinality() const noexcept {
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < dims(); ++i) {
    const std::uint64_t w = static_cast<std::uint64_t>(upper_[i] - lower_[i]) + 1;
    if (n > std::numeric_limits<std::uint64_t>::max() / w) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    n *= w;
  }
  return n;
}

ConfigBlock SearchSpace::enumerate(std::uint64_t max_points) const {
  const std::uint64_t n = cardinality();
  if (n > max_points) {
    throw std::length_error("SearchSpace::enumerate: space too large");
  }
  ConfigBlock out(dims());
  out.reserve(static_cast<std::size_t>(n));
  Config c = lower_;
  while (true) {
    out.push_back(c);
    // Odometer increment, last dimension fastest.
    std::size_t i = dims();
    while (i-- > 0) {
      if (c[i] < upper_[i]) {
        ++c[i];
        for (std::size_t j = i + 1; j < dims(); ++j) c[j] = lower_[j];
        break;
      }
      if (i == 0) return out;
    }
  }
}

ConfigBlock SearchSpace::sample(std::size_t n, std::mt19937_64& rng) const {
  ConfigBlock out(dims());
  out.reserve(n);
  Config c(dims());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < dims(); ++i) {
      std::uniform_int_distribution<int> dist(lower_[i], upper_[i]);
      c[i] = dist(rng);
    }
    out.push_back(c);
  }
  return out;
}

ConfigBlock SearchSpace::candidates(std::size_t budget,
                                    std::mt19937_64& rng) const {
  if (cardinality() <= budget) return enumerate(budget);
  ConfigBlock out = sample(budget, rng);
  // Always include the two extreme corners so the acquisition maximiser can
  // reach the boundary of the space even with a small random budget.
  out.push_back(lower_);
  out.push_back(upper_);
  out.sort_unique();
  return out;
}

ConfigBlock SearchSpace::local_candidates(const Config& center,
                                          int radius) const {
  const Config c = clamp(center);
  ConfigBlock out(dims());
  Config m = c;
  const auto add = [&] {
    if (contains(m)) out.push_back(m);
    m = c;
  };
  // Single-coordinate moves.
  for (std::size_t i = 0; i < dims(); ++i) {
    for (int d = 1; d <= radius; ++d) {
      for (int sign : {-1, 1}) {
        m[i] += sign * d;
        add();
      }
    }
  }
  // Coordinate-pair moves (+-1).
  for (std::size_t i = 0; i < dims(); ++i) {
    for (std::size_t j = i + 1; j < dims(); ++j) {
      for (int si : {-1, 1}) {
        for (int sj : {-1, 1}) {
          m[i] += si;
          m[j] += sj;
          add();
        }
      }
    }
  }
  // Uniform +-1 across all coordinates.
  for (int sign : {-1, 1}) {
    for (int& k : m) k += sign;
    add();
  }
  out.sort_unique();
  return out;
}

ConfigBlock SearchSpace::axis_candidates(const Config& center,
                                         int levels) const {
  const Config c = clamp(center);
  ConfigBlock out(dims());
  Config m = c;
  for (std::size_t i = 0; i < dims(); ++i) {
    const int lo = lower_[i];
    const int hi = upper_[i];
    const int steps = std::max(1, levels - 1);
    for (int s = 0; s < levels; ++s) {
      m[i] = lo + static_cast<int>(std::llround(
                      static_cast<double>(hi - lo) * s / steps));
      if (m != c) out.push_back(m);
    }
    m[i] = c[i];
  }
  out.sort_unique();
  return out;
}

std::vector<double> to_features(const Config& c) {
  std::vector<double> f(c.size());
  to_features(c, f);
  return f;
}

void to_features(std::span<const int> c, std::span<double> out) {
  if (out.size() != c.size()) {
    throw std::invalid_argument("to_features: size mismatch");
  }
  std::copy(c.begin(), c.end(), out.begin());
}

}  // namespace autra::bo
