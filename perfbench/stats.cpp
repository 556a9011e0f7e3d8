#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // 1-based nearest rank; the samples after it are the tail it rests on.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double failed_fraction(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

void Digest::add(std::string_view text) {
  sha_.update(avsec::core::BytesView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string Digest::hex() const {
  avsec::crypto::Sha256 copy = sha_;
  const auto d = copy.finish();
  return avsec::core::to_hex(d);
}

}  // namespace perfbench
