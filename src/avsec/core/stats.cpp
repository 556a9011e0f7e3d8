#include "avsec/core/stats.hpp"

#include <algorithm>
#include <cmath>

namespace avsec::core {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

void Counter::add(const std::string& key, std::uint64_t n) {
  total_ += n;
  for (auto& [k, v] : items_) {
    if (k == key) {
      v += n;
      return;
    }
  }
  items_.emplace_back(key, n);
}

std::uint64_t Counter::get(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return v;
  }
  return 0;
}

double Counter::fraction(const std::string& key) const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(get(key)) /
                           static_cast<double>(total_);
}

std::vector<std::pair<std::string, std::uint64_t>> Counter::sorted() const {
  auto out = items_;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

}  // namespace avsec::core
