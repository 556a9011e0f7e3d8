// Reference crypto kernels for differential tests: the byte-wise AES,
// bit-serial GHASH and 8 x 32-bit Curve25519 field the library shipped
// before its table-driven rewrite, kept verbatim in behaviour. Linked into
// crypto_tests only; the fast kernels under src/avsec/crypto must produce
// the same bytes on every input.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "avsec/core/bytes.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/fe25519.hpp"
#include "avsec/crypto/x25519.hpp"

namespace avsec::crypto::ref {

using core::Bytes;
using core::BytesView;

/// AES-128/256 encryption, one S-box lookup per byte and MixColumns by
/// xtime.
class Aes {
 public:
  using Block = std::array<std::uint8_t, 16>;

  explicit Aes(BytesView key);
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  Block encrypt(const Block& in) const;

 private:
  int rounds_ = 0;
  std::array<std::uint8_t, 15 * 16> rk_{};
};

/// AES-GCM with 128-iteration bit-serial GF(2^128) multiplication.
class AesGcm {
 public:
  explicit AesGcm(BytesView key);
  Bytes seal(BytesView iv, BytesView aad, BytesView plaintext, Bytes& tag,
             std::size_t tag_len = 16) const;
  std::optional<Bytes> open(BytesView iv, BytesView aad, BytesView ciphertext,
                            BytesView tag) const;

 private:
  using Block = Aes::Block;
  Block ghash(BytesView aad, BytesView ct) const;
  Bytes ctr_crypt(const Block& j0, BytesView data) const;

  Aes aes_;
  Block h_{};
};

/// AES-CMAC over the reference block cipher.
class AesCmac {
 public:
  explicit AesCmac(BytesView key);
  Bytes mac(BytesView message) const;

 private:
  Aes aes_;
  Aes::Block k1_{};
  Aes::Block k2_{};
};

// ---- GF(2^255 - 19) on 8 x 32-bit limbs, fully reduced after every op ----

extern const U256 kFieldPrime;

U256 fe_from_u32(std::uint32_t v);
U256 fe_add(const U256& a, const U256& b);
U256 fe_sub(const U256& a, const U256& b);
U256 fe_mul(const U256& a, const U256& b);
U256 fe_sq(const U256& a);
U256 fe_neg(const U256& a);
U256 fe_pow(const U256& a, const U256& e);
U256 fe_inv(const U256& a);
bool fe_is_zero(const U256& a);
bool fe_is_negative(const U256& a);
const U256& fe_sqrt_m1();
U256 fe_from_bytes(BytesView b32);

X25519Key x25519(const X25519Key& scalar, const X25519Key& u);
X25519Key x25519_base(const X25519Key& scalar);

Ed25519KeyPair ed25519_keypair(BytesView seed32);
Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, BytesView message);
bool ed25519_verify(BytesView public_key32, BytesView message,
                    BytesView signature64);

}  // namespace avsec::crypto::ref
