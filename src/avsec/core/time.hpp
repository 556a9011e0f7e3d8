// Simulation time: a signed 64-bit count of picoseconds.
//
// Integer time keeps event ordering exact and reproducible; picosecond
// resolution comfortably represents both a 2 GS/s UWB sample (500 ps) and
// multi-minute system-of-systems runs (9.2e6 seconds of headroom).
#pragma once

#include <cstdint>

namespace avsec::core {

/// Absolute simulation time or duration, in picoseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kPicosecond = 1;
inline constexpr SimTime kNanosecond = 1'000;
inline constexpr SimTime kMicrosecond = 1'000'000;
inline constexpr SimTime kMillisecond = 1'000'000'000;
inline constexpr SimTime kSecond = 1'000'000'000'000;

constexpr SimTime nanoseconds(std::int64_t v) { return v * kNanosecond; }
constexpr SimTime microseconds(std::int64_t v) { return v * kMicrosecond; }
constexpr SimTime milliseconds(std::int64_t v) { return v * kMillisecond; }
constexpr SimTime seconds(std::int64_t v) { return v * kSecond; }

/// Converts a SimTime to microseconds as a double (for reporting only).
constexpr double to_microseconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/// Duration of one transmitted bit at `bits_per_second`, rounded to the
/// nearest picosecond.
constexpr SimTime bit_time(std::int64_t bits_per_second) {
  return (kSecond + bits_per_second / 2) / bits_per_second;
}

/// Time to serialize `bits` onto a medium running at `bits_per_second`.
constexpr SimTime transmission_time(std::int64_t bits,
                                    std::int64_t bits_per_second) {
  return bits * bit_time(bits_per_second);
}

}  // namespace avsec::core
