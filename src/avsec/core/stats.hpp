// Streaming statistics used by probes and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace avsec::core {

/// Welford-style streaming accumulator: count/mean/variance/min/max in O(1)
/// memory, numerically stable.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one.
  void merge(const Accumulator& other);

  /// Exact (bitwise double) state equality; used to prove parallel sweeps
  /// reproduce serial ones.
  bool identical(const Accumulator& other) const {
    return n_ == other.n_ && mean_ == other.mean_ && m2_ == other.m2_ &&
           min_ == other.min_ && max_ == other.max_ && sum_ == other.sum_;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Keeps all samples; offers exact quantiles. Use for bench reporting where
/// sample counts are modest. min() and max() scan and leave the samples in
/// insertion order; quantile() and median() sort them in place, after which
/// values() and mean()'s summation follow sorted order.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact quantile by linear interpolation, q in [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Counter map for categorical outcomes (attack succeeded / detected / ...).
class Counter {
 public:
  void add(const std::string& key, std::uint64_t n = 1);
  std::uint64_t get(const std::string& key) const;
  std::uint64_t total() const { return total_; }
  /// Fraction of total held by `key`; 0 when empty.
  double fraction(const std::string& key) const;
  std::vector<std::pair<std::string, std::uint64_t>> sorted() const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> items_;
  std::uint64_t total_ = 0;
};

}  // namespace avsec::core
