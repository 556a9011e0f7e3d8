#include "avsec/netsim/flaky.hpp"

namespace avsec::netsim {

FlakyChannel::FlakyChannel(core::Scheduler& sim, FlakyChannelConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {}

void FlakyChannel::bind(End end, Rx on_rx) {
  (end == End::kA ? rx_a_ : rx_b_) = std::move(on_rx);
}

void FlakyChannel::send(End from, core::Bytes datagram) {
  ++sent_;
  if (partitioned_ || rng_.chance(config_.drop_rate)) {
    ++dropped_;
    return;
  }
  if (!datagram.empty() && rng_.chance(config_.corrupt_rate)) {
    // Flip one byte at a reproducible position.
    const auto pos = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(datagram.size()) - 1));
    datagram[pos] ^= 0xFF;
  }
  sim_.schedule_in(total_latency(),
                   [this, from, d = std::move(datagram)] {
                     ++delivered_;
                     const Rx& rx = from == End::kA ? rx_b_ : rx_a_;
                     if (rx) rx(d, sim_.now());
                   });
}

}  // namespace avsec::netsim
