// Sample statistics for the benchmark: percentiles that refuse to report
// a tail the sample cannot support, and the digest that pins simulated
// results across runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "avsec/crypto/sha2.hpp"

namespace perfbench {

/// Nearest-rank percentile `q` in (0, 1) of `samples`. Reported only when
/// at least ten samples lie strictly beyond the percentile's rank, so a
/// p99 needs 1000 samples and a median 20; nullopt otherwise.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample with no tail requirement (used for
/// repeated measurements of one quantity, e.g. per-pass throughput).
double median_of(std::vector<double> samples);

/// failed ÷ attempted; 0 when nothing was attempted.
double failed_fraction(std::uint64_t failed, std::uint64_t attempted);

/// Running SHA-256 over rendered reports or replies.
class Digest {
 public:
  void add(std::string_view text);
  /// Hex digest of everything added so far (does not reset).
  std::string hex() const;

 private:
  avsec::crypto::Sha256 sha_;
};

}  // namespace perfbench
