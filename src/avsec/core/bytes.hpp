// Byte-buffer utilities shared by protocol codecs and crypto, and the two
// byte-stable text encoders shared by manifests, replies and telemetry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace avsec::core {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Lowercase hex encoding of a byte range.
std::string to_hex(BytesView data);

/// Parses lowercase/uppercase hex; throws std::invalid_argument on odd
/// length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Bytes of a string (no terminator).
Bytes to_bytes(std::string_view s);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Appends a big-endian integer of `width` bytes (width <= 8).
void append_be(Bytes& dst, std::uint64_t value, std::size_t width);

/// Reads a big-endian integer of `width` bytes at `offset`; throws
/// std::out_of_range if the range does not fit.
std::uint64_t read_be(BytesView data, std::size_t offset, std::size_t width);

/// true if ranges are equal in constant time (length leak only).
bool ct_equal(BytesView a, BytesView b);

/// Appends `s` as a quoted JSON string. Arbitrary bytes (e.g. a trace
/// dump) survive the round trip: the usual two-char escapes for the common
/// controls, \u00XX for the rest, everything else verbatim.
void append_json_string(std::string& out, std::string_view s);

/// `v` printed with %.17g, which round-trips every finite double exactly
/// and is locale-independent for the characters it emits, so text built
/// from it is byte-stable.
std::string format_double(double v);

}  // namespace avsec::core
