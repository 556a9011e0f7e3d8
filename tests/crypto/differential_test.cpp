// Differential tests: the table-driven AES, Shoup-table GHASH and 5 x 51-bit
// Curve25519 field against the byte-wise / bit-serial / 8 x 32-bit kernels
// they replaced (tests/crypto/reference/), on fixed-seed random inputs and
// on the edge encodings. Every output byte and every verdict must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/fe25519.hpp"
#include "avsec/crypto/modes.hpp"
#include "avsec/crypto/x25519.hpp"
#include "reference/reference.hpp"

namespace avsec::crypto {
namespace {

using core::Bytes;
using core::BytesView;

Bytes random_bytes(core::Rng& rng, std::size_t n) {
  Bytes b(n);
  rng.fill_bytes(b);
  return b;
}

std::size_t pick(core::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

template <std::size_t N>
Bytes as_bytes(const std::array<std::uint8_t, N>& a) {
  return Bytes(a.begin(), a.end());
}

TEST(CryptoDifferential, AesBlockMatchesReference) {
  core::Rng rng(101);
  for (int k = 0; k < 40; ++k) {
    const Bytes key = random_bytes(rng, k % 2 == 0 ? 16 : 32);
    const Aes fast(key);
    const ref::Aes slow(key);
    for (int i = 0; i < 25; ++i) {
      Aes::Block in{};
      const Bytes r = random_bytes(rng, 16);
      std::copy(r.begin(), r.end(), in.begin());
      ASSERT_EQ(fast.encrypt(in), slow.encrypt(in));
    }
  }
}

TEST(CryptoDifferential, GcmSealOpenMatchesReference) {
  core::Rng rng(102);
  for (int i = 0; i < 150; ++i) {
    const Bytes key = random_bytes(rng, i % 2 == 0 ? 16 : 32);
    const Bytes iv = random_bytes(rng, 12);
    const Bytes aad = random_bytes(rng, pick(rng, 0, 64));
    // Every fifth case is a full-frame size; the rest are short and mostly
    // not a multiple of 16.
    const std::size_t len =
        i % 5 == 0 ? pick(rng, 1400, 1500) : pick(rng, 0, 100);
    const Bytes pt = random_bytes(rng, len);
    const std::size_t tag_len = pick(rng, 4, 16);
    const AesGcm fast(key);
    const ref::AesGcm slow(key);

    Bytes tag_fast, tag_slow;
    const Bytes ct = fast.seal(iv, aad, pt, tag_fast, tag_len);
    ASSERT_EQ(ct, slow.seal(iv, aad, pt, tag_slow, tag_len))
        << "case " << i << " aad " << aad.size() << " pt " << len;
    ASSERT_EQ(tag_fast, tag_slow) << "case " << i << " tag_len " << tag_len;

    ASSERT_EQ(fast.open(iv, aad, ct, tag_fast), std::optional<Bytes>(pt));
    ASSERT_EQ(slow.open(iv, aad, ct, tag_fast), std::optional<Bytes>(pt));

    // One flipped bit in ciphertext, AAD or tag: both refuse.
    Bytes bad_ct = ct, bad_aad = aad, bad_tag = tag_fast;
    if (!bad_ct.empty()) bad_ct[pick(rng, 0, bad_ct.size() - 1)] ^= 0x01;
    if (!bad_aad.empty()) bad_aad[pick(rng, 0, bad_aad.size() - 1)] ^= 0x80;
    bad_tag[pick(rng, 0, bad_tag.size() - 1)] ^= 0x10;
    EXPECT_EQ(fast.open(iv, aad, bad_ct, tag_fast).has_value(),
              slow.open(iv, aad, bad_ct, tag_fast).has_value());
    EXPECT_EQ(fast.open(iv, bad_aad, ct, tag_fast).has_value(),
              slow.open(iv, bad_aad, ct, tag_fast).has_value());
    EXPECT_FALSE(fast.open(iv, aad, ct, bad_tag).has_value());
    EXPECT_FALSE(slow.open(iv, aad, ct, bad_tag).has_value());
  }
}

TEST(CryptoDifferential, CmacMatchesReferenceOverEveryLengthTo80) {
  core::Rng rng(103);
  for (int k = 0; k < 4; ++k) {
    const Bytes key = random_bytes(rng, k % 2 == 0 ? 16 : 32);
    const AesCmac fast(key);
    const ref::AesCmac slow(key);
    for (std::size_t len = 0; len <= 80; ++len) {
      const Bytes msg = random_bytes(rng, len);
      ASSERT_EQ(fast.mac(msg), slow.mac(msg)) << "len " << len;
    }
  }
}

// ---- GF(2^255 - 19) ----

// 0, 1, p - 1, p, p + 1, p + 3 and 2^255 - 1, each also with bit 255 set
// (which decoding masks off).
std::vector<Bytes> edge_encodings() {
  std::vector<Bytes> out;
  auto le = [](std::uint8_t low, std::uint8_t mid, std::uint8_t top) {
    Bytes b(32, mid);
    b[0] = low;
    b[31] = top;
    return b;
  };
  for (const Bytes& b :
       {le(0x00, 0x00, 0x00), le(0x01, 0x00, 0x00), le(0xEC, 0xFF, 0x7F),
        le(0xED, 0xFF, 0x7F), le(0xEE, 0xFF, 0x7F), le(0xFF, 0xFF, 0x7F),
        le(0xF0, 0xFF, 0x7F)}) {
    out.push_back(b);
    Bytes high = b;
    high[31] |= 0x80;
    out.push_back(high);
  }
  return out;
}

std::vector<Bytes> field_inputs(core::Rng& rng, int random_count) {
  std::vector<Bytes> in = edge_encodings();
  for (int i = 0; i < random_count; ++i) in.push_back(random_bytes(rng, 32));
  return in;
}

Bytes ref_bytes(const U256& v) { return u256_to_le(v); }

TEST(CryptoDifferential, FieldDecodeEncodeMatchesReference) {
  core::Rng rng(104);
  for (const Bytes& b : field_inputs(rng, 200)) {
    const Fe f = fe_from_bytes(b);
    const U256 r = ref::fe_from_bytes(b);
    ASSERT_EQ(as_bytes(fe_to_bytes(f)), ref_bytes(r)) << core::to_hex(b);
    EXPECT_EQ(fe_is_zero(f), ref::fe_is_zero(r));
    EXPECT_EQ(fe_is_negative(f), ref::fe_is_negative(r));
  }
}

TEST(CryptoDifferential, FieldOpsMatchReference) {
  core::Rng rng(105);
  const std::vector<Bytes> in = field_inputs(rng, 40);
  for (const Bytes& ab : in) {
    const Fe a = fe_from_bytes(ab);
    const U256 ra = ref::fe_from_bytes(ab);
    ASSERT_EQ(as_bytes(fe_to_bytes(fe_sq(a))), ref_bytes(ref::fe_sq(ra)));
    ASSERT_EQ(as_bytes(fe_to_bytes(fe_neg(a))), ref_bytes(ref::fe_neg(ra)));
    ASSERT_EQ(as_bytes(fe_to_bytes(fe_inv(a))), ref_bytes(ref::fe_inv(ra)));
    ASSERT_EQ(as_bytes(fe_to_bytes(fe_mul_small(a, 121665))),
              ref_bytes(ref::fe_mul(ra, ref::fe_from_u32(121665))));
    for (const Bytes& bb : in) {
      const Fe b = fe_from_bytes(bb);
      const U256 rb = ref::fe_from_bytes(bb);
      ASSERT_EQ(as_bytes(fe_to_bytes(fe_add(a, b))),
                ref_bytes(ref::fe_add(ra, rb)));
      ASSERT_EQ(as_bytes(fe_to_bytes(fe_sub(a, b))),
                ref_bytes(ref::fe_sub(ra, rb)));
      ASSERT_EQ(as_bytes(fe_to_bytes(fe_mul(a, b))),
                ref_bytes(ref::fe_mul(ra, rb)));
      EXPECT_EQ(fe_equal(a, b), ra == rb);
      // Lazy-carry chains at the documented bounds: sums of two values as
      // multiplicands and as subtrahends.
      const Fe sum = fe_add(fe_mul(a, b), fe_sq(b));
      const U256 rsum = ref::fe_add(ref::fe_mul(ra, rb), ref::fe_sq(rb));
      ASSERT_EQ(as_bytes(fe_to_bytes(fe_mul(sum, fe_add(sum, sum)))),
                ref_bytes(ref::fe_mul(rsum, ref::fe_add(rsum, rsum))));
      ASSERT_EQ(as_bytes(fe_to_bytes(fe_sub(fe_neg(a), sum))),
                ref_bytes(ref::fe_sub(ref::fe_neg(ra), rsum)));
    }
  }
}

TEST(CryptoDifferential, FieldPowChainsMatchGenericPow) {
  core::Rng rng(106);
  // (p - 5) / 8 = 2^252 - 3 as a U256 exponent for the generic reference.
  U256 e{};
  e.fill(0xFFFFFFFF);
  e[0] = 0xFFFFFFFD;
  e[7] = 0x0FFFFFFF;
  for (const Bytes& b : field_inputs(rng, 20)) {
    const Fe a = fe_from_bytes(b);
    const U256 ra = ref::fe_from_bytes(b);
    ASSERT_EQ(as_bytes(fe_to_bytes(fe_pow22523(a))),
              ref_bytes(ref::fe_pow(ra, e)));
  }
  EXPECT_EQ(as_bytes(fe_to_bytes(fe_sqrt_m1())), ref_bytes(ref::fe_sqrt_m1()));
}

// ---- X25519 / Ed25519 ----

TEST(CryptoDifferential, X25519MatchesReference) {
  core::Rng rng(107);
  for (int i = 0; i < 24; ++i) {
    X25519Key scalar{}, u{};
    const Bytes s = random_bytes(rng, 32), ub = random_bytes(rng, 32);
    std::copy(s.begin(), s.end(), scalar.begin());
    std::copy(ub.begin(), ub.end(), u.begin());
    if (i % 2 == 0) u[31] |= 0x80;  // high bit set: masked per RFC 7748
    ASSERT_EQ(x25519(scalar, u), ref::x25519(scalar, u)) << "case " << i;
    ASSERT_EQ(x25519_base(scalar), ref::x25519_base(scalar)) << "case " << i;
  }
  // u in [p, 2^255): non-canonical encodings of small u.
  for (const Bytes& b : edge_encodings()) {
    X25519Key scalar{}, u{};
    scalar.fill(0x5A);
    std::copy(b.begin(), b.end(), u.begin());
    ASSERT_EQ(x25519(scalar, u), ref::x25519(scalar, u)) << core::to_hex(b);
  }
}

Ed25519Signature plus_group_order(const Ed25519Signature& sig) {
  // S + L: the same scalar mod L, non-canonical, so verify must refuse.
  U256 s = u256_from_le(BytesView(sig.data() + 32, 32));
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t cur = std::uint64_t{s[i]} + kGroupOrder[i] + carry;
    s[i] = static_cast<std::uint32_t>(cur);
    carry = cur >> 32;
  }
  Ed25519Signature out = sig;
  const Bytes le = u256_to_le(s);
  std::copy(le.begin(), le.end(), out.begin() + 32);
  return out;
}

TEST(CryptoDifferential, Ed25519SignAndVerifyMatchReference) {
  core::Rng rng(108);
  for (int i = 0; i < 8; ++i) {
    const Bytes seed = random_bytes(rng, 32);
    const Bytes msg = random_bytes(rng, pick(rng, 0, 96));
    const Ed25519KeyPair kp = ed25519_keypair(seed);
    const Ed25519KeyPair rkp = ref::ed25519_keypair(seed);
    ASSERT_EQ(kp.public_key, rkp.public_key) << "case " << i;
    const Ed25519Signature sig = ed25519_sign(kp, msg);
    ASSERT_EQ(sig, ref::ed25519_sign(rkp, msg)) << "case " << i;

    const BytesView pk(kp.public_key.data(), 32);
    auto both = [&](BytesView key, const Ed25519Signature& s, bool expect) {
      const BytesView sv(s.data(), 64);
      EXPECT_EQ(ed25519_verify(key, msg, sv), expect) << "case " << i;
      EXPECT_EQ(ref::ed25519_verify(key, msg, sv), expect) << "case " << i;
    };
    both(pk, sig, true);
    Ed25519Signature flipped = sig;
    flipped[pick(rng, 0, 63)] ^=
        static_cast<std::uint8_t>(1u << pick(rng, 0, 7));
    both(pk, flipped, false);
    both(pk, plus_group_order(sig), false);
  }
}

TEST(CryptoDifferential, Ed25519VerifyVerdictsOnOddKeysMatchReference) {
  core::Rng rng(109);
  const Ed25519KeyPair kp = ed25519_keypair(random_bytes(rng, 32));
  const Bytes msg = core::to_bytes("differential");
  const Ed25519Signature sig = ed25519_sign(kp, msg);
  const BytesView sv(sig.data(), 64);
  // Non-canonical y (y = p + k encodes k), both signs of x, plus random
  // 32-byte strings: about half of those are off the curve.
  std::vector<Bytes> keys = edge_encodings();
  for (int i = 0; i < 12; ++i) keys.push_back(random_bytes(rng, 32));
  int accepted = 0;
  for (const Bytes& key : keys) {
    const bool fast = ed25519_verify(key, msg, sv);
    ASSERT_EQ(fast, ref::ed25519_verify(key, msg, sv)) << core::to_hex(key);
    accepted += fast ? 1 : 0;
  }
  EXPECT_EQ(accepted, 0);
}

}  // namespace
}  // namespace avsec::crypto
