// Arithmetic over GF(2^255 - 19) and over the ed25519 group order L.
//
// Field elements are 5 x 51-bit limbs multiplied through unsigned __int128
// products, with lazy carries: fe_add does not carry, every other
// operation returns limbs below 2^51 + 2^18. Values are canonicalized
// (fully reduced mod p) only where the representation shows: encoding,
// comparison, the zero test and the sign test. The field is the bulk of
// X25519 and Ed25519 time, so it is the part written for speed; it is not
// constant-time (DESIGN.md §11).
//
// Limb bounds each operation accepts: fe_mul, fe_sq and fe_mul_small take
// limbs below 2^54; fe_sub's subtrahend must stay below 2^53 - 76, which
// any sum of two outputs of the other operations does.
//
// Scalars mod L stay on plain 256/512-bit integers (U256/U512): they are
// a few calls per signature, not the inner loop.
#pragma once

#include <array>
#include <cstdint>

#include "avsec/core/bytes.hpp"

namespace avsec::crypto {

// ---- field GF(p), p = 2^255 - 19 ----

/// Field element: value = v[0] + v[1]*2^51 + ... + v[4]*2^204 (mod p),
/// not necessarily canonical. Compare with fe_equal, never limb by limb.
struct Fe {
  std::uint64_t v[5];
};

Fe fe_from_u32(std::uint32_t v);
/// Decodes 32 little-endian bytes, masking bit 255 (RFC 7748 / RFC 8032).
/// Encodings in [p, 2^255) decode to their value mod p.
Fe fe_from_bytes(core::BytesView b32);
/// Canonical 32-byte little-endian encoding (value fully reduced mod p).
std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a);

/// Multiplicative inverse a^(p-2) (0 maps to 0): 254 squarings and 11
/// multiplications.
Fe fe_inv(const Fe& a);
/// a^((p-5)/8) = a^(2^252 - 3), the exponent of the Ed25519 decode root.
Fe fe_pow22523(const Fe& a);

bool fe_equal(const Fe& a, const Fe& b);
bool fe_is_zero(const Fe& a);
bool fe_is_negative(const Fe& a);  // lsb of canonical encoding
/// sqrt(-1) mod p, the root 2^((p-1)/4).
const Fe& fe_sqrt_m1();

// ---- inline field arithmetic: the X25519 ladder and the Edwards point
// formulas are almost nothing else, so callers see the bodies ----

namespace detail {

using u128 = unsigned __int128;

inline constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

/// Carries five wide column sums down to limbs below 2^51 (limb 1 may
/// keep up to 2^18 more), folding the top carry back as 2^255 = 19.
inline Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  const u128 r0 = (static_cast<std::uint64_t>(t0) & kMask51) +
                  u128{19} * static_cast<std::uint64_t>(t4 >> 51);
  return Fe{{static_cast<std::uint64_t>(r0) & kMask51,
             (static_cast<std::uint64_t>(t1) & kMask51) +
                 static_cast<std::uint64_t>(r0 >> 51),
             static_cast<std::uint64_t>(t2) & kMask51,
             static_cast<std::uint64_t>(t3) & kMask51,
             static_cast<std::uint64_t>(t4) & kMask51}};
}

/// One carry pass on 64-bit limbs (each below 2^63).
inline void carry(std::uint64_t t[5]) {
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= kMask51;
  }
  t[0] += 19 * (t[4] >> 51);
  t[4] &= kMask51;
}

}  // namespace detail

inline Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 4p - b: 4p's limbs are 2^53 - 76 and 2^53 - 4, so no limb goes
  // negative for any subtrahend below 2^53 - 76.
  std::uint64_t t[5] = {a.v[0] + 0x1FFFFFFFFFFFB4 - b.v[0],
                        a.v[1] + 0x1FFFFFFFFFFFFC - b.v[1],
                        a.v[2] + 0x1FFFFFFFFFFFFC - b.v[2],
                        a.v[3] + 0x1FFFFFFFFFFFFC - b.v[3],
                        a.v[4] + 0x1FFFFFFFFFFFFC - b.v[4]};
  detail::carry(t);
  return Fe{{t[0], t[1], t[2], t[3], t[4]}};
}

inline Fe fe_neg(const Fe& a) { return fe_sub(Fe{}, a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  // Limb products past 2^255 wrap around as 2^255 = 19.
  const std::uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                      b4_19 = 19 * b4;
  return detail::carry_wide(
      u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 + u128{a3} * b2_19 +
          u128{a4} * b1_19,
      u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 + u128{a3} * b3_19 +
          u128{a4} * b2_19,
      u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 + u128{a3} * b4_19 +
          u128{a4} * b3_19,
      u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 + u128{a3} * b0 +
          u128{a4} * b4_19,
      u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 + u128{a3} * b1 +
          u128{a4} * b0);
}

inline Fe fe_sq(const Fe& a) {
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1, a1_38 = 38 * a1,
                      a2_38 = 38 * a2, a3_38 = 38 * a3, a3_19 = 19 * a3,
                      a4_19 = 19 * a4;
  return detail::carry_wide(
      u128{a0} * a0 + u128{a1_38} * a4 + u128{a2_38} * a3,
      u128{a0_2} * a1 + u128{a2_38} * a4 + u128{a3_19} * a3,
      u128{a0_2} * a2 + u128{a1} * a1 + u128{a3_38} * a4,
      u128{a0_2} * a3 + u128{a1_2} * a2 + u128{a4_19} * a4,
      u128{a0_2} * a4 + u128{a1_2} * a3 + u128{a2} * a2);
}

/// a * k for a small constant k < 2^17 (the X25519 a24 = 121665).
inline Fe fe_mul_small(const Fe& a, std::uint32_t k) {
  using detail::u128;
  return detail::carry_wide(u128{a.v[0]} * k, u128{a.v[1]} * k,
                            u128{a.v[2]} * k, u128{a.v[3]} * k,
                            u128{a.v[4]} * k);
}

// ---- raw 256-bit helpers for scalars (no modulus) ----

/// 256-bit little-endian integer.
using U256 = std::array<std::uint32_t, 8>;
/// 512-bit little-endian integer (multiplication result).
using U512 = std::array<std::uint32_t, 16>;

/// a < b
bool u256_less(const U256& a, const U256& b);
/// a - b, returns borrow-out (a, b unsigned)
std::uint32_t u256_sub(U256& a, const U256& b);
/// 8x8 -> 16 limb schoolbook multiply
U512 u256_mul(const U256& a, const U256& b);
/// bytes (little-endian, up to 32) -> U256
U256 u256_from_le(core::BytesView bytes);
/// U256 -> 32 little-endian bytes
core::Bytes u256_to_le(const U256& v);

// ---- scalars mod L, L = 2^252 + 27742317777372353535851937790883648493 ----

extern const U256 kGroupOrder;

/// value mod L for a 512-bit input (used on SHA-512 outputs).
U256 sc_reduce(const U512& wide);
/// (a*b + c) mod L
U256 sc_muladd(const U256& a, const U256& b, const U256& c);
U256 sc_from_bytes(core::BytesView bytes);  // up to 64 LE bytes, reduced

}  // namespace avsec::crypto
