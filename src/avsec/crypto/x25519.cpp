#include "avsec/crypto/x25519.hpp"

#include <utility>

#include "avsec/crypto/fe25519.hpp"

namespace avsec::crypto {

X25519Key x25519_clamp(const X25519Key& raw) {
  X25519Key k = raw;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
  return k;
}

X25519Key x25519(const X25519Key& scalar, const X25519Key& u) {
  const X25519Key k = x25519_clamp(scalar);
  const Fe x1 = fe_from_bytes(core::BytesView(u.data(), u.size()));

  Fe x2 = fe_from_u32(1), z2 = fe_from_u32(0), x3 = x1, z3 = fe_from_u32(1);

  bool swap = false;
  for (int t = 254; t >= 0; --t) {
    const bool kt = (k[t / 8] >> (t % 8)) & 1;
    if (swap != kt) {
      std::swap(x2, x3);
      std::swap(z2, z3);
    }
    swap = kt;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  if (swap) {
    std::swap(x2, x3);
    std::swap(z2, z3);
  }
  return fe_to_bytes(fe_mul(x2, fe_inv(z2)));
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

}  // namespace avsec::crypto
