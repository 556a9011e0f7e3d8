#include "avsec/crypto/fe25519.hpp"

#include <cassert>

namespace avsec::crypto {

namespace {

/// a^(2^n) by n squarings.
Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

/// The addition chain shared by fe_inv and fe_pow22523: a^(2^250 - 1),
/// with a^11 left in `a11`.
Fe pow_2_250_1(const Fe& a, Fe& a11) {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(fe_sq_n(a2, 2), a);
  a11 = fe_mul(a9, a2);
  const Fe e5 = fe_mul(fe_sq(a11), a9);         // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);     // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);  // 2^20 - 1
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);  // 2^40 - 1
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);  // 2^50 - 1
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);     // 2^100 - 1
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);  // 2^200 - 1
  return fe_mul(fe_sq_n(e200, 50), e50);             // 2^250 - 1
}

}  // namespace

Fe fe_from_u32(std::uint32_t v) { return Fe{{v, 0, 0, 0, 0}}; }

Fe fe_from_bytes(core::BytesView b32) {
  assert(b32.size() == 32);
  std::uint64_t w[4] = {};
  for (std::size_t i = 0; i < 32; ++i) {
    w[i / 8] |= std::uint64_t{b32[i]} << (8 * (i % 8));
  }
  return Fe{{w[0] & detail::kMask51, ((w[0] >> 51) | (w[1] << 13)) & detail::kMask51,
             ((w[1] >> 38) | (w[2] << 26)) & detail::kMask51,
             ((w[2] >> 25) | (w[3] << 39)) & detail::kMask51, (w[3] >> 12) & detail::kMask51}};
}

std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a) {
  std::uint64_t t[5] = {a.v[0], a.v[1], a.v[2], a.v[3], a.v[4]};
  // Two passes leave the value properly carried in [0, 2^255).
  detail::carry(t);
  detail::carry(t);
  // Subtract p when value >= p, i.e. when value + 19 reaches 2^255.
  std::uint64_t q = (t[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (t[i] + q) >> 51;
  t[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= detail::kMask51;
  }
  t[4] &= detail::kMask51;
  const std::uint64_t w[4] = {t[0] | (t[1] << 51), (t[1] >> 13) | (t[2] << 38),
                              (t[2] >> 26) | (t[3] << 25),
                              (t[3] >> 39) | (t[4] << 12)};
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

Fe fe_inv(const Fe& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe a11;
  const Fe e250 = pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 5), a11);
}

Fe fe_pow22523(const Fe& a) {
  // 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  Fe a11;
  const Fe e250 = pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 2), a);
}

bool fe_equal(const Fe& a, const Fe& b) {
  return fe_to_bytes(a) == fe_to_bytes(b);
}

bool fe_is_zero(const Fe& a) {
  const std::array<std::uint8_t, 32> bytes = fe_to_bytes(a);
  for (const std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

bool fe_is_negative(const Fe& a) { return (fe_to_bytes(a)[0] & 1) != 0; }

const Fe& fe_sqrt_m1() {
  static constexpr Fe kSqrtM1{{1718705420411056, 234908883556509,
                               2233514472574048, 2117202627021982,
                               765476049583133}};
  return kSqrtM1;
}

// L = 2^252 + 27742317777372353535851937790883648493
const U256 kGroupOrder = {0x5CF5D3ED, 0x5812631A, 0xA2F79CD6, 0x14DEF9DE,
                          0x00000000, 0x00000000, 0x00000000, 0x10000000};

bool u256_less(const U256& a, const U256& b) {
  for (int i = 7; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

std::uint32_t u256_sub(U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur = std::uint64_t(a[i]) - b[i] - borrow;
    a[i] = static_cast<std::uint32_t>(cur);
    borrow = (cur >> 32) & 1;
  }
  return static_cast<std::uint32_t>(borrow);
}

U512 u256_mul(const U256& a, const U256& b) {
  U512 r{};
  for (int i = 0; i < 8; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 8; ++j) {
      const std::uint64_t cur =
          std::uint64_t(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    r[i + 8] = static_cast<std::uint32_t>(carry);
  }
  return r;
}

U256 u256_from_le(core::BytesView bytes) {
  assert(bytes.size() <= 32);
  U256 v{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    v[i / 4] |= std::uint32_t(bytes[i]) << (8 * (i % 4));
  }
  return v;
}

core::Bytes u256_to_le(const U256& v) {
  core::Bytes out(32);
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(v[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

U256 sc_reduce(const U512& wide) {
  // Binary long division remainder: process bits MSB-first.
  U256 r{};
  for (int limb = 15; limb >= 0; --limb) {
    for (int bit = 31; bit >= 0; --bit) {
      // r = (r << 1) | bit
      std::uint32_t carry = (wide[limb] >> bit) & 1;
      for (int i = 0; i < 8; ++i) {
        const std::uint32_t next = r[i] >> 31;
        r[i] = (r[i] << 1) | carry;
        carry = next;
      }
      // r < 2L < 2^253 so no 256-bit overflow is possible here.
      if (!u256_less(r, kGroupOrder)) {
        u256_sub(r, kGroupOrder);
      }
    }
  }
  return r;
}

U256 sc_muladd(const U256& a, const U256& b, const U256& c) {
  U512 prod = u256_mul(a, b);
  // prod += c
  std::uint64_t carry = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t cur =
        std::uint64_t(prod[i]) + (i < 8 ? c[i] : 0) + carry;
    prod[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  return sc_reduce(prod);
}

U256 sc_from_bytes(core::BytesView bytes) {
  assert(bytes.size() <= 64);
  U512 w{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    w[i / 4] |= std::uint32_t(bytes[i]) << (8 * (i % 4));
  }
  return sc_reduce(w);
}

}  // namespace avsec::crypto
