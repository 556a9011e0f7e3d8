// AES modes of operation: CTR keystream, GCM AEAD (SP 800-38D), and
// CMAC (RFC 4493 / SP 800-38B).
#pragma once

#include <optional>

#include "avsec/crypto/aes.hpp"

namespace avsec::crypto {

/// AES-CTR keystream generator / stream cipher.
class AesCtr {
 public:
  /// `iv` is the initial 16-byte counter block.
  AesCtr(BytesView key, const Aes::Block& iv);

  /// Produces `n` keystream bytes.
  Bytes keystream(std::size_t n);

  /// XORs keystream into data (encrypt == decrypt).
  void crypt(Bytes& data);

 private:
  void next_block();

  Aes aes_;
  Aes::Block counter_;
  Aes::Block block_{};
  std::size_t used_ = Aes::kBlockSize;
};

/// AES-GCM authenticated encryption.
///
/// The IV must be 12 bytes (the common fast path of SP 800-38D). Tags may be
/// truncated to 4..16 bytes for constrained protocols (CANsec uses shorter
/// tags than MACsec); open() refuses any tag outside that range. GHASH
/// multiplies through per-key 4-bit tables built once in the constructor.
class AesGcm {
 public:
  explicit AesGcm(BytesView key);

  /// Encrypts `plaintext` and returns ciphertext; writes the tag (of
  /// `tag_len` bytes) to `tag`.
  Bytes seal(BytesView iv, BytesView aad, BytesView plaintext, Bytes& tag,
             std::size_t tag_len = 16) const;

  /// Verifies and decrypts; returns nullopt on authentication failure or
  /// a tag shorter than 4 or longer than 16 bytes.
  std::optional<Bytes> open(BytesView iv, BytesView aad, BytesView ciphertext,
                            BytesView tag) const;

 private:
  using Block = Aes::Block;

  Block ghash(BytesView aad, BytesView ct) const;
  /// y := y * H in GF(2^128), y as big-endian (hi, lo) halves.
  void mul_h(std::uint64_t& hi, std::uint64_t& lo) const;
  Bytes ctr_crypt(const Block& j0, BytesView data) const;

  Aes aes_;
  // Shoup's 4-bit tables for the GHASH subkey H = E_K(0^128): entry n is
  // n * H for the 4-bit polynomial n (bit 3 = x^0), as (hi, lo) halves.
  std::array<std::uint64_t, 16> h_hi_{};
  std::array<std::uint64_t, 16> h_lo_{};
};

/// AES-CMAC (RFC 4493). Produces a 16-byte tag; callers may truncate.
class AesCmac {
 public:
  explicit AesCmac(BytesView key);

  Bytes mac(BytesView message) const;

  /// Truncated tag of `len` bytes (most-significant-first per RFC).
  Bytes mac_truncated(BytesView message, std::size_t len) const;

 private:
  static Aes::Block left_shift(const Aes::Block& in, bool& carry);

  Aes aes_;
  Aes::Block k1_{};
  Aes::Block k2_{};
};

}  // namespace avsec::crypto
