#include "avsec/phy/uwb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace avsec::phy {

double distance_to_samples(double meters) { return meters / kMetersPerSample; }
double samples_to_distance(double samples) { return samples * kMetersPerSample; }

void make_sts_into(core::BytesView key16, std::uint64_t counter,
                   std::size_t n_chips, ChipCode& out) {
  crypto::Aes::Block iv{};
  for (int i = 0; i < 8; ++i) {
    iv[8 + i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
  }
  crypto::AesCtr ctr(key16, iv);
  const core::Bytes stream = ctr.keystream((n_chips + 7) / 8);
  out.chips.clear();
  out.chips.reserve(n_chips);
  for (std::size_t i = 0; i < n_chips; ++i) {
    const bool bit = (stream[i / 8] >> (i % 8)) & 1;
    out.chips.push_back(bit ? 1 : -1);
  }
}

ChipCode make_sts(core::BytesView key16, std::uint64_t counter,
                  std::size_t n_chips) {
  ChipCode code;
  make_sts_into(key16, counter, n_chips, code);
  return code;
}

void make_lrp_code_into(core::BytesView key16, std::uint64_t counter,
                        std::size_t n_slots, std::size_t n_pulses,
                        LrpCode& out) {
  assert(n_pulses <= n_slots);
  crypto::Aes::Block iv{};
  iv[0] = 0x4C;  // domain-separate from STS
  for (int i = 0; i < 8; ++i) {
    iv[8 + i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
  }
  crypto::AesCtr ctr(key16, iv);

  // Fisher-Yates selection of pulse positions driven by the keystream.
  std::vector<std::size_t> slots(n_slots);
  for (std::size_t i = 0; i < n_slots; ++i) slots[i] = i;
  auto next_u32 = [&]() {
    const core::Bytes b = ctr.keystream(4);
    return (std::uint32_t(b[0]) << 24) | (std::uint32_t(b[1]) << 16) |
           (std::uint32_t(b[2]) << 8) | std::uint32_t(b[3]);
  };
  for (std::size_t i = 0; i < n_pulses; ++i) {
    const std::size_t j = i + next_u32() % (n_slots - i);
    std::swap(slots[i], slots[j]);
  }
  out.positions.assign(slots.begin(), slots.begin() + n_pulses);
  std::sort(out.positions.begin(), out.positions.end());
  out.polarities.clear();
  out.polarities.reserve(n_pulses);
  const core::Bytes pol = ctr.keystream((n_pulses + 7) / 8);
  for (std::size_t i = 0; i < n_pulses; ++i) {
    out.polarities.push_back(((pol[i / 8] >> (i % 8)) & 1) ? 1 : -1);
  }
}

LrpCode make_lrp_code(core::BytesView key16, std::uint64_t counter,
                      std::size_t n_slots, std::size_t n_pulses) {
  LrpCode code;
  make_lrp_code_into(key16, counter, n_slots, n_pulses, code);
  return code;
}

namespace {

/// Gaussian monocycle (first derivative of a Gaussian), peak amplitude 1.
double pulse_sample(int k, int half_width) {
  const double t = static_cast<double>(k) / half_width;
  // Normalized so that the extremum is ~1.
  return -t * std::exp(0.5 * (1.0 - t * t));
}

void place_pulse(Signal& s, std::size_t center, int polarity,
                 const PulseShape& shape) {
  for (int k = -2 * shape.pulse_half_width; k <= 2 * shape.pulse_half_width;
       ++k) {
    const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(center) + k;
    if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(s.size())) continue;
    s[static_cast<std::size_t>(idx)] +=
        polarity * pulse_sample(k, shape.pulse_half_width);
  }
}

}  // namespace

void render_chips_into(const ChipCode& code, const PulseShape& shape,
                       Signal& out) {
  out.assign(code.size() * shape.chip_spacing_samples +
                 4 * shape.pulse_half_width + 1,
             0.0);
  for (std::size_t i = 0; i < code.size(); ++i) {
    place_pulse(out,
                i * shape.chip_spacing_samples + 2 * shape.pulse_half_width,
                code.chips[i], shape);
  }
}

Signal render_chips(const ChipCode& code, const PulseShape& shape) {
  Signal s;
  render_chips_into(code, shape, s);
  return s;
}

void render_lrp_into(const LrpCode& code, const PulseShape& shape,
                     Signal& out) {
  const std::size_t n_slots =
      code.positions.empty() ? 0 : code.positions.back() + 1;
  out.assign(n_slots * shape.chip_spacing_samples +
                 4 * shape.pulse_half_width + 1,
             0.0);
  for (std::size_t i = 0; i < code.positions.size(); ++i) {
    place_pulse(out,
                code.positions[i] * shape.chip_spacing_samples +
                    2 * shape.pulse_half_width,
                code.polarities[i], shape);
  }
}

Channel::Channel(ChannelConfig config)
    : config_(config), rng_(config.seed) {}

Signal Channel::propagate(const Signal& tx, double distance_m,
                          std::size_t rx_length) {
  Signal rx;
  propagate_into(tx, distance_m, rx_length, rx);
  return rx;
}

void Channel::propagate_into(const Signal& tx, double distance_m,
                             std::size_t rx_length, Signal& rx) {
  rx.assign(rx_length, 0.0);
  const auto delay =
      static_cast<std::ptrdiff_t>(std::lround(distance_to_samples(distance_m)));
  mix_into(rx, tx, delay, 1.0);

  // Multipath: delayed, attenuated, randomly signed echoes.
  double gain = 1.0;
  for (int tap = 0; tap < config_.multipath_taps; ++tap) {
    gain *= config_.tap_decay;
    const auto extra =
        static_cast<std::ptrdiff_t>(rng_.uniform_int(3, config_.tap_spread_samples));
    const double sign = rng_.chance(0.5) ? 1.0 : -1.0;
    mix_into(rx, tx, delay + extra, sign * gain);
  }

  // AWGN sized against unit pulse amplitude.
  const double noise_sigma = std::pow(10.0, -config_.snr_db / 20.0);
  for (double& v : rx) v += rng_.normal(0.0, noise_sigma);
}

void mix_into(Signal& target, const Signal& addend, std::ptrdiff_t offset,
              double gain) {
  for (std::size_t i = 0; i < addend.size(); ++i) {
    const std::ptrdiff_t idx = offset + static_cast<std::ptrdiff_t>(i);
    if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(target.size())) continue;
    target[static_cast<std::size_t>(idx)] += gain * addend[i];
  }
}

}  // namespace avsec::phy
