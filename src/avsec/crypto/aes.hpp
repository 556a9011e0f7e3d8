// AES-128 / AES-256 block cipher (FIPS 197), encryption only: every mode
// the simulator runs (CTR, GCM, CMAC) uses the forward cipher. Encryption
// runs on 32-bit T-tables (one 4 KiB constexpr table set); the key
// schedule keeps the byte-wise S-box path. Table lookups are key- and
// data-dependent, so this is not side-channel hardened (DESIGN.md §11).
#pragma once

#include <array>
#include <cstdint>

#include "avsec/core/bytes.hpp"

namespace avsec::crypto {

using core::Bytes;
using core::BytesView;

/// AES block cipher with 128- or 256-bit keys.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;

  /// Constructs from a 16- or 32-byte key; throws std::invalid_argument
  /// otherwise.
  explicit Aes(BytesView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  Block encrypt(const Block& in) const;

  int rounds() const { return rounds_; }

 private:
  void expand_key(BytesView key);

  int rounds_ = 0;
  // Round keys as big-endian words: (rounds+1) * 4.
  std::array<std::uint32_t, 15 * 4> rk_{};
};

}  // namespace avsec::crypto
