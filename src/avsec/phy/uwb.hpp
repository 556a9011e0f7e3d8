// UWB baseband signal model for secure ranging (paper §II, Fig. 2).
//
// Signals are real-valued baseband sample vectors at 2 GS/s (0.5 ns per
// sample, ~7.5 cm of one-way distance per sample). Pulses are Gaussian
// monocycles placed on a chip grid with BPSK polarity taken from a
// cryptographic code:
//  - HRP mode: the Secure Training Sequence (STS) — an AES-CTR keystream
//    mapped to +/-1 chips (IEEE 802.15.4z HRP).
//  - LRP mode: sparse pulses whose *positions and polarities* are secret
//    (pulse reordering à la Singh et al., NDSS'19).
#pragma once

#include <cstdint>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/crypto/modes.hpp"

namespace avsec::phy {

using Signal = std::vector<double>;

/// Physical constants of the model.
inline constexpr double kSampleRateHz = 2e9;
inline constexpr double kSpeedOfLight = 299'792'458.0;
/// One-way metres per sample.
inline constexpr double kMetersPerSample = kSpeedOfLight / kSampleRateHz;

/// Converts a one-way propagation distance to (fractional) samples.
double distance_to_samples(double meters);
double samples_to_distance(double samples);

/// BPSK chip sequence with cryptographically pseudorandom signs.
struct ChipCode {
  std::vector<int> chips;  // +1 / -1
  std::size_t size() const { return chips.size(); }
};

/// Derives an STS chip code from a 16-byte key and a counter (AES-CTR).
ChipCode make_sts(core::BytesView key16, std::uint64_t counter,
                  std::size_t n_chips);

/// Scratch-reusing variant: overwrites `out` (capacity is retained across
/// calls, so per-session code derivation stops allocating).
void make_sts_into(core::BytesView key16, std::uint64_t counter,
                   std::size_t n_chips, ChipCode& out);

/// LRP pulse pattern: `n_pulses` pulses at secret positions within a frame
/// of `n_slots` chip slots, each with a secret polarity.
struct LrpCode {
  std::vector<std::size_t> positions;  // strictly increasing slot indices
  std::vector<int> polarities;         // +1 / -1
};

LrpCode make_lrp_code(core::BytesView key16, std::uint64_t counter,
                      std::size_t n_slots, std::size_t n_pulses);

/// Scratch-reusing variant of make_lrp_code.
void make_lrp_code_into(core::BytesView key16, std::uint64_t counter,
                        std::size_t n_slots, std::size_t n_pulses,
                        LrpCode& out);

/// Waveform synthesis parameters.
struct PulseShape {
  int chip_spacing_samples = 8;  // 4 ns chips
  int pulse_half_width = 2;      // samples; Gaussian monocycle support
};

/// Renders a chip code to a sampled waveform starting at sample 0.
Signal render_chips(const ChipCode& code, const PulseShape& shape);

/// Scratch-reusing render variants: `out` is resized and overwritten.
void render_chips_into(const ChipCode& code, const PulseShape& shape,
                       Signal& out);
void render_lrp_into(const LrpCode& code, const PulseShape& shape,
                     Signal& out);

/// Multipath + AWGN channel.
struct ChannelConfig {
  double snr_db = 20.0;           // per-pulse amplitude SNR
  int multipath_taps = 3;         // reflections after the direct path
  double tap_decay = 0.5;         // amplitude ratio per successive tap
  int tap_spread_samples = 24;    // max extra delay of reflections
  std::uint64_t seed = 1;
};

class Channel {
 public:
  explicit Channel(ChannelConfig config);

  /// Propagates `tx` over `distance_m` (one way): integer-sample delay,
  /// multipath echoes, then AWGN sized for unit-amplitude pulses.
  /// The output is `rx_length` samples long.
  Signal propagate(const Signal& tx, double distance_m,
                   std::size_t rx_length);

  /// Scratch-reusing variant: `rx` is resized to `rx_length`, zeroed, and
  /// filled; the RNG draws are identical to propagate().
  void propagate_into(const Signal& tx, double distance_m,
                      std::size_t rx_length, Signal& rx);

  core::Rng& rng() { return rng_; }

 private:
  ChannelConfig config_;
  core::Rng rng_;
};

/// Adds `addend` into `target` starting at sample `offset` (clipping).
void mix_into(Signal& target, const Signal& addend, std::ptrdiff_t offset,
              double gain = 1.0);

}  // namespace avsec::phy
