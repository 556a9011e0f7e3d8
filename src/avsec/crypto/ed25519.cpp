#include "avsec/crypto/ed25519.hpp"

#include <cassert>

#include "avsec/crypto/fe25519.hpp"
#include "avsec/crypto/sha2.hpp"

namespace avsec::crypto {

namespace {

/// Twisted Edwards point in extended coordinates (X:Y:Z:T), T = XY/Z.
struct Ge {
  Fe x, y, z, t;
};

/// 2d, where d = -121665/121666 mod p is the curve constant.
constexpr Fe kCurve2d{{1859910466990425, 932731440258426, 1072319116312658,
                       1815898335770999, 633789495995903}};
/// d itself (decode only).
constexpr Fe kCurveD{{929955233495203, 466365720129213, 1662059464998953,
                      2033849074728123, 1442794654840575}};

Ge ge_identity() {
  return Ge{fe_from_u32(0), fe_from_u32(1), fe_from_u32(1), fe_from_u32(0)};
}

/// Strongly unified addition (add-2008-hwcd-3, a = -1): valid for P == Q.
Ge ge_add(const Ge& p, const Ge& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, kCurve2d), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// Doubling (dbl-2008-hwcd, a = -1), the result negated in all four
/// coordinates, which is the same projective point: 4 squarings and 4
/// multiplications against ge_add's 9 multiplications.
Ge ge_dbl(const Ge& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz2 = fe_add(fe_sq(p.z), fe_sq(p.z));
  const Fe sum = fe_add(yy, xx);                      // -H
  const Fe diff = fe_sub(yy, xx);                     // G
  const Fe e = fe_sub(fe_sq(fe_add(p.x, p.y)), sum);  // E = 2XY
  const Fe f = fe_sub(zz2, diff);                     // -F
  return Ge{fe_mul(e, f), fe_mul(sum, diff), fe_mul(diff, f), fe_mul(e, sum)};
}

/// Scalar multiplication, double-and-add (not constant-time; the simulated
/// protocols do not model timing side channels).
Ge ge_scalarmul(const Ge& p, const U256& scalar) {
  Ge r = ge_identity();
  Ge base = p;
  for (int limb = 0; limb < 8; ++limb) {
    for (int bit = 0; bit < 32; ++bit) {
      if ((scalar[limb] >> bit) & 1) r = ge_add(r, base);
      base = ge_dbl(base);
    }
  }
  return r;
}

std::array<std::uint8_t, 32> ge_encode(const Ge& p) {
  const Fe zinv = fe_inv(p.z);
  std::array<std::uint8_t, 32> out = fe_to_bytes(fe_mul(p.y, zinv));
  if (fe_is_negative(fe_mul(p.x, zinv))) out[31] |= 0x80;
  return out;
}

std::optional<Ge> ge_decode(core::BytesView enc) {
  if (enc.size() != 32) return std::nullopt;
  const bool x_sign = (enc[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(enc);

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_from_u32(1));
  const Fe v = fe_add(fe_mul(kCurveD, y2), fe_from_u32(1));

  // candidate root: x = (u/v)^((p+3)/8) = u * v^3 * (u * v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
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
    const Fe y = fe_mul(fe_from_u32(4), fe_inv(fe_from_u32(5)));
    auto p = ge_decode(fe_to_bytes(y));  // sign bit 0 -> even x
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
  kp.public_key = ge_encode(ge_scalarmul(base_point(), s));
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
  const std::array<std::uint8_t, 32> r_enc = ge_encode(rp);

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
  const std::array<std::uint8_t, 32> r_check_enc = ge_encode(r_check);
  return core::ct_equal(r_check_enc, r_enc);
}

}  // namespace avsec::crypto
