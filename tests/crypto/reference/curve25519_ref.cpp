// Reference Curve25519: the 8 x 32-bit fully reduced field, the X25519
// ladder and Ed25519 (generic fe_pow inversion and square root, doubling
// through the unified addition) the library used before its 5 x 51-bit
// rewrite. Scalar arithmetic mod L is shared with the library, which did
// not change it. See reference.hpp.
#include <cassert>
#include <utility>

#include "avsec/crypto/sha2.hpp"
#include "reference.hpp"

namespace avsec::crypto::ref {

const U256 kFieldPrime = {0xFFFFFFED, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF,
                          0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0x7FFFFFFF};

namespace {

std::uint32_t u256_add(U256& a, const U256& b) {
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur = std::uint64_t(a[i]) + b[i] + carry;
    a[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  return static_cast<std::uint32_t>(carry);
}

/// Subtract p while >= p (value < 2p on entry suffices; loop handles more).
void canonicalize(U256& v) {
  while (!u256_less(v, kFieldPrime)) {
    u256_sub(v, kFieldPrime);
  }
}

}  // namespace

U256 fe_from_u32(std::uint32_t v) {
  U256 r{};
  r[0] = v;
  return r;
}

U256 fe_add(const U256& a, const U256& b) {
  U256 r = a;
  const std::uint32_t carry = u256_add(r, b);
  if (carry) {
    // r + 2^256 ≡ r + 38 (mod p)
    U256 c38 = fe_from_u32(38);
    u256_add(r, c38);
  }
  canonicalize(r);
  return r;
}

U256 fe_sub(const U256& a, const U256& b) {
  // a, b < p, so a + p - b < 2p.
  U256 r = a;
  u256_add(r, kFieldPrime);
  u256_sub(r, b);
  canonicalize(r);
  return r;
}

U256 fe_reduce(const U512& wide) {
  // 2^256 ≡ 38 (mod p): fold high half down with multiplier 38.
  U256 out{};
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur =
        std::uint64_t(wide[i]) + 38ULL * wide[i + 8] + carry;
    out[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  // carry < 2^7; fold again: carry * 2^256 ≡ carry * 38.
  while (carry != 0) {
    std::uint64_t add = carry * 38ULL;
    carry = 0;
    for (int i = 0; i < 8 && add != 0; ++i) {
      const std::uint64_t cur = std::uint64_t(out[i]) + (add & 0xFFFFFFFFULL);
      out[i] = static_cast<std::uint32_t>(cur);
      add = (add >> 32) + (cur >> 32);
    }
    carry = add;
  }
  canonicalize(out);
  return out;
}

U256 fe_mul(const U256& a, const U256& b) { return fe_reduce(u256_mul(a, b)); }

U256 fe_sq(const U256& a) { return fe_mul(a, a); }

U256 fe_neg(const U256& a) { return fe_sub(U256{}, a); }

U256 fe_pow(const U256& a, const U256& e) {
  U256 result = fe_from_u32(1);
  bool started = false;
  for (int limb = 7; limb >= 0; --limb) {
    for (int bit = 31; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((e[limb] >> bit) & 1) {
        result = fe_mul(result, a);
        started = true;
      }
    }
  }
  return result;
}

U256 fe_inv(const U256& a) {
  // a^(p-2)
  U256 e = kFieldPrime;
  U256 two = fe_from_u32(2);
  u256_sub(e, two);
  return fe_pow(a, e);
}

bool fe_is_zero(const U256& a) {
  for (auto w : a) {
    if (w != 0) return false;
  }
  return true;
}

bool fe_is_negative(const U256& a) { return (a[0] & 1) != 0; }

const U256& fe_sqrt_m1() {
  // 2^((p-1)/4) is a square root of -1 mod p.
  static const U256 value = [] {
    U256 e = kFieldPrime;
    U256 one = fe_from_u32(1);
    u256_sub(e, one);
    // shift right by 2
    for (int i = 0; i < 8; ++i) {
      e[i] >>= 2;
      if (i < 7) e[i] |= e[i + 1] << 30;
    }
    return fe_pow(fe_from_u32(2), e);
  }();
  return value;
}

U256 fe_from_bytes(core::BytesView b32) {
  assert(b32.size() == 32);
  U256 v = u256_from_le(b32);
  v[7] &= 0x7FFFFFFF;
  canonicalize(v);
  return v;
}

namespace {

void cswap(bool swap, U256& a, U256& b) {
  if (swap) std::swap(a, b);
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& u) {
  const X25519Key k = crypto::x25519_clamp(scalar);
  const U256 x1 = fe_from_bytes(core::BytesView(u.data(), u.size()));

  U256 x2 = fe_from_u32(1), z2{}, x3 = x1, z3 = fe_from_u32(1);
  const U256 a24 = fe_from_u32(121665);

  bool swap = false;
  for (int t = 254; t >= 0; --t) {
    const bool kt = (k[t / 8] >> (t % 8)) & 1;
    swap ^= kt;
    cswap(swap, x2, x3);
    cswap(swap, z2, z3);
    swap = kt;

    const U256 a = fe_add(x2, z2);
    const U256 aa = fe_sq(a);
    const U256 b = fe_sub(x2, z2);
    const U256 bb = fe_sq(b);
    const U256 e = fe_sub(aa, bb);
    const U256 c = fe_add(x3, z3);
    const U256 d = fe_sub(x3, z3);
    const U256 da = fe_mul(d, a);
    const U256 cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul(a24, e)));
  }
  cswap(swap, x2, x3);
  cswap(swap, z2, z3);

  const U256 out = fe_mul(x2, fe_inv(z2));
  const core::Bytes le = u256_to_le(out);
  X25519Key result{};
  std::copy(le.begin(), le.end(), result.begin());
  return result;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

namespace {

/// Twisted Edwards point in extended coordinates (X:Y:Z:T), T = XY/Z.
struct Ge {
  U256 x, y, z, t;
};

/// Curve constant d = -121665/121666 mod p (computed once).
const U256& curve_d() {
  static const U256 d =
      fe_mul(fe_neg(fe_from_u32(121665)), fe_inv(fe_from_u32(121666)));
  return d;
}

const U256& curve_2d() {
  static const U256 d2 = fe_add(curve_d(), curve_d());
  return d2;
}

Ge ge_identity() {
  return Ge{U256{}, fe_from_u32(1), fe_from_u32(1), U256{}};
}

/// Strongly unified addition (add-2008-hwcd-3, a = -1): valid for P == Q.
Ge ge_add(const Ge& p, const Ge& q) {
  const U256 a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const U256 b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const U256 c = fe_mul(fe_mul(p.t, curve_2d()), q.t);
  const U256 d = fe_mul(fe_add(p.z, p.z), q.z);
  const U256 e = fe_sub(b, a);
  const U256 f = fe_sub(d, c);
  const U256 g = fe_add(d, c);
  const U256 h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// Scalar multiplication, double-and-add (not constant-time; the simulated
/// protocols do not model timing side channels).
Ge ge_scalarmul(const Ge& p, const U256& scalar) {
  Ge r = ge_identity();
  Ge base = p;
  for (int limb = 0; limb < 8; ++limb) {
    for (int bit = 0; bit < 32; ++bit) {
      if ((scalar[limb] >> bit) & 1) r = ge_add(r, base);
      base = ge_add(base, base);
    }
  }
  return r;
}

core::Bytes ge_encode(const Ge& p) {
  const U256 zinv = fe_inv(p.z);
  const U256 x = fe_mul(p.x, zinv);
  const U256 y = fe_mul(p.y, zinv);
  core::Bytes out = u256_to_le(y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

std::optional<Ge> ge_decode(core::BytesView enc) {
  if (enc.size() != 32) return std::nullopt;
  const bool x_sign = (enc[31] & 0x80) != 0;
  const U256 y = fe_from_bytes(enc);

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const U256 y2 = fe_sq(y);
  const U256 u = fe_sub(y2, fe_from_u32(1));
  const U256 v = fe_add(fe_mul(curve_d(), y2), fe_from_u32(1));

  // candidate root: x = (u/v)^((p+3)/8) = u * v^3 * (u * v^7)^((p-5)/8)
  const U256 v3 = fe_mul(fe_sq(v), v);
  const U256 v7 = fe_mul(fe_sq(v3), v);
  U256 e = kFieldPrime;  // (p - 5) / 8
  U256 five = fe_from_u32(5);
  u256_sub(e, five);
  for (int i = 0; i < 8; ++i) {
    e[i] >>= 3;
    if (i < 7) e[i] |= e[i + 1] << 29;
  }
  U256 x = fe_mul(fe_mul(u, v3), fe_pow(fe_mul(u, v7), e));

  const U256 vx2 = fe_mul(v, fe_sq(x));
  if (!fe_is_zero(fe_sub(vx2, u))) {
    if (fe_is_zero(fe_add(vx2, u))) {
      x = fe_mul(x, fe_sqrt_m1());
    } else {
      return std::nullopt;  // not on curve
    }
  }
  if (fe_is_zero(x) && x_sign) return std::nullopt;
  if (fe_is_negative(x) != x_sign) x = fe_neg(x);

  return Ge{x, y, fe_from_u32(1), fe_mul(x, y)};
}

const Ge& base_point() {
  // B = (x, 4/5) with even x; recover via decode of encoded y.
  static const Ge b = [] {
    const U256 y = fe_mul(fe_from_u32(4), fe_inv(fe_from_u32(5)));
    core::Bytes enc = u256_to_le(y);  // sign bit 0 -> even x
    auto p = ge_decode(enc);
    assert(p.has_value());
    return *p;
  }();
  return b;
}

U256 clamp_scalar(core::BytesView h32) {
  core::Bytes s(h32.begin(), h32.end());
  s[0] &= 248;
  s[31] &= 127;
  s[31] |= 64;
  return u256_from_le(s);
}

U512 to_u512(core::BytesView bytes64) {
  U512 w{};
  for (std::size_t i = 0; i < bytes64.size(); ++i) {
    w[i / 4] |= std::uint32_t(bytes64[i]) << (8 * (i % 4));
  }
  return w;
}

}  // namespace

Ed25519KeyPair ed25519_keypair(BytesView seed32) {
  assert(seed32.size() == 32);
  Ed25519KeyPair kp;
  std::copy(seed32.begin(), seed32.end(), kp.seed.begin());

  const Bytes h = Sha512::hash(seed32);
  const U256 s = clamp_scalar(BytesView(h.data(), 32));
  const Ge a = ge_scalarmul(base_point(), s);
  const Bytes enc = ge_encode(a);
  std::copy(enc.begin(), enc.end(), kp.public_key.begin());
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, BytesView message) {
  const Bytes h = Sha512::hash(BytesView(kp.seed.data(), 32));
  const U256 s = clamp_scalar(BytesView(h.data(), 32));
  const BytesView prefix(h.data() + 32, 32);

  Sha512 rh;
  rh.update(prefix);
  rh.update(message);
  const auto r_digest = rh.finish();
  const U256 r = sc_reduce(to_u512(BytesView(r_digest.data(), 64)));

  const Ge rp = ge_scalarmul(base_point(), r);
  const Bytes r_enc = ge_encode(rp);

  Sha512 kh;
  kh.update(r_enc);
  kh.update(BytesView(kp.public_key.data(), 32));
  kh.update(message);
  const auto k_digest = kh.finish();
  const U256 k = sc_reduce(to_u512(BytesView(k_digest.data(), 64)));

  const U256 s_out = sc_muladd(k, s, r);
  const Bytes s_le = u256_to_le(s_out);

  Ed25519Signature sig{};
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  std::copy(s_le.begin(), s_le.end(), sig.begin() + 32);
  return sig;
}

bool ed25519_verify(BytesView public_key32, BytesView message,
                    BytesView signature64) {
  if (public_key32.size() != 32 || signature64.size() != 64) return false;

  const BytesView r_enc(signature64.data(), 32);
  const BytesView s_le(signature64.data() + 32, 32);
  const U256 s = u256_from_le(s_le);
  if (!u256_less(s, kGroupOrder)) return false;  // non-canonical S

  const auto a = ge_decode(public_key32);
  if (!a) return false;

  Sha512 kh;
  kh.update(r_enc);
  kh.update(public_key32);
  kh.update(message);
  const auto k_digest = kh.finish();
  const U256 k = sc_reduce(to_u512(BytesView(k_digest.data(), 64)));

  // Check [S]B == R + [k]A  by comparing encodings of [S]B - [k]A with R.
  // Negate A (x -> -x, t -> -t) and compute [S]B + [k](-A).
  Ge neg_a = *a;
  neg_a.x = fe_neg(neg_a.x);
  neg_a.t = fe_neg(neg_a.t);

  const Ge sb = ge_scalarmul(base_point(), s);
  const Ge ka = ge_scalarmul(neg_a, k);
  const Ge r_check = ge_add(sb, ka);
  const Bytes r_check_enc = ge_encode(r_check);
  return core::ct_equal(r_check_enc, r_enc);
}

}  // namespace avsec::crypto::ref
