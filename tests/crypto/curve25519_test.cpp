#include <gtest/gtest.h>

#include "avsec/core/rng.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/fe25519.hpp"
#include "avsec/crypto/x25519.hpp"
#include "reference/reference.hpp"

namespace avsec::crypto {
namespace {

using core::from_hex;
using core::to_hex;

X25519Key key_from_hex(const std::string& h) {
  const auto b = from_hex(h);
  X25519Key k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

TEST(Fe25519, AddSubInverse) {
  core::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    core::Bytes a_bytes(32), b_bytes(32);
    rng.fill_bytes(a_bytes);
    rng.fill_bytes(b_bytes);
    const Fe a = fe_from_bytes(a_bytes);
    const Fe b = fe_from_bytes(b_bytes);
    EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
  }
}

TEST(Fe25519, MulCommutesAndDistributes) {
  core::Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    core::Bytes ab(32), bb(32), cb(32);
    rng.fill_bytes(ab);
    rng.fill_bytes(bb);
    rng.fill_bytes(cb);
    const Fe a = fe_from_bytes(ab), b = fe_from_bytes(bb),
             c = fe_from_bytes(cb);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)),
                         fe_add(fe_mul(a, b), fe_mul(a, c))));
  }
}

TEST(Fe25519, InverseIsMultiplicativeInverse) {
  core::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    core::Bytes ab(32);
    rng.fill_bytes(ab);
    const Fe a = fe_from_bytes(ab);
    if (fe_is_zero(a)) continue;
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_inv(a)), fe_from_u32(1)));
  }
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  const Fe i = fe_sqrt_m1();
  EXPECT_TRUE(fe_equal(fe_sq(i), fe_neg(fe_from_u32(1))));
}

TEST(Fe25519, ScalarReductionBelowGroupOrder) {
  core::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    core::Bytes wide(64);
    rng.fill_bytes(wide);
    const U256 r = sc_from_bytes(wide);
    EXPECT_TRUE(u256_less(r, kGroupOrder));
  }
}

TEST(Fe25519, ScMulAddMatchesManualSmallValues) {
  // (3*4 + 5) mod L == 17
  const U256 r = sc_muladd(U256{3}, U256{4}, U256{5});
  EXPECT_EQ(r, U256{17});
}

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto u = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = x25519(scalar, u);
  EXPECT_EQ(to_hex(core::BytesView(out.data(), 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

// Known answers below are checked on the kept reference too, so a
// mistyped vector fails on both implementations.
TEST(X25519, Rfc7748Vector2) {
  const auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto u = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const std::string expect =
      "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957";
  const auto out = x25519(scalar, u);
  EXPECT_EQ(to_hex(core::BytesView(out.data(), 32)), expect);
  const auto ref_out = ref::x25519(scalar, u);
  EXPECT_EQ(to_hex(core::BytesView(ref_out.data(), 32)), expect);
}

// RFC 7748 §5.2 iteration: k = u = 9; each step k, u = X25519(k, u), k.
std::string iterate_x25519(int steps, bool reference) {
  X25519Key k{}, u{};
  k[0] = 9;
  u[0] = 9;
  for (int i = 0; i < steps; ++i) {
    const X25519Key next = reference ? ref::x25519(k, u) : x25519(k, u);
    u = k;
    k = next;
  }
  return to_hex(core::BytesView(k.data(), 32));
}

TEST(X25519, Rfc7748OneIteration) {
  const std::string expect =
      "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079";
  EXPECT_EQ(iterate_x25519(1, false), expect);
  EXPECT_EQ(iterate_x25519(1, true), expect);
}

TEST(X25519, Rfc7748ThousandIterations) {
  const std::string expect =
      "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51";
  EXPECT_EQ(iterate_x25519(1000, false), expect);
  EXPECT_EQ(iterate_x25519(1000, true), expect);
}

TEST(X25519, DiffieHellmanAgreement) {
  core::Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    X25519Key a{}, b{};
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next());
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    const auto pa = x25519_base(a);
    const auto pb = x25519_base(b);
    EXPECT_EQ(x25519(a, pb), x25519(b, pa));
  }
}

TEST(X25519, ClampSetsRequiredBits) {
  X25519Key raw{};
  for (auto& b : raw) b = 0xFF;
  const auto c = x25519_clamp(raw);
  EXPECT_EQ(c[0] & 7, 0);
  EXPECT_EQ(c[31] & 0x80, 0);
  EXPECT_EQ(c[31] & 0x40, 0x40);
}

TEST(Ed25519, Rfc8032TestVector1) {
  const auto seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(core::BytesView(kp.public_key.data(), 32)),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(kp, {});
  EXPECT_EQ(to_hex(core::BytesView(sig.data(), 64)),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), {},
                             core::BytesView(sig.data(), 64)));
}

TEST(Ed25519, Rfc8032TestVector2) {
  const auto seed = from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto kp = ed25519_keypair(seed);
  EXPECT_EQ(to_hex(core::BytesView(kp.public_key.data(), 32)),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const core::Bytes msg = {0x72};
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex(core::BytesView(sig.data(), 64)),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), msg,
                             core::BytesView(sig.data(), 64)));
}

TEST(Ed25519, Rfc8032TestVector3) {
  const auto seed = from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const std::string pk =
      "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025";
  const std::string expect =
      "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
      "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a";
  const core::Bytes msg = from_hex("af82");
  for (const bool reference : {false, true}) {
    const auto kp =
        reference ? ref::ed25519_keypair(seed) : ed25519_keypair(seed);
    EXPECT_EQ(to_hex(core::BytesView(kp.public_key.data(), 32)), pk);
    const auto sig =
        reference ? ref::ed25519_sign(kp, msg) : ed25519_sign(kp, msg);
    EXPECT_EQ(to_hex(core::BytesView(sig.data(), 64)), expect);
    const core::BytesView key(kp.public_key.data(), 32), sv(sig.data(), 64);
    EXPECT_TRUE(reference ? ref::ed25519_verify(key, msg, sv)
                          : ed25519_verify(key, msg, sv));
  }
}

TEST(Ed25519, SignVerifyRoundTripRandomMessages) {
  core::Rng rng(6);
  core::Bytes seed(32);
  rng.fill_bytes(seed);
  const auto kp = ed25519_keypair(seed);
  for (std::size_t len : {0u, 1u, 33u, 100u}) {
    core::Bytes msg(len);
    rng.fill_bytes(msg);
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_TRUE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), msg,
                               core::BytesView(sig.data(), 64)));
  }
}

TEST(Ed25519, VerifyRejectsWrongMessage) {
  core::Bytes seed(32, 9);
  const auto kp = ed25519_keypair(seed);
  const auto sig = ed25519_sign(kp, core::to_bytes("authentic"));
  EXPECT_FALSE(ed25519_verify(core::BytesView(kp.public_key.data(), 32),
                              core::to_bytes("forged"),
                              core::BytesView(sig.data(), 64)));
}

TEST(Ed25519, VerifyRejectsTamperedSignature) {
  core::Bytes seed(32, 10);
  const auto kp = ed25519_keypair(seed);
  const auto msg = core::to_bytes("firmware image digest");
  auto sig = ed25519_sign(kp, msg);
  for (std::size_t i : {0u, 31u, 32u, 63u}) {
    auto bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), msg,
                                core::BytesView(bad.data(), 64)));
  }
}

TEST(Ed25519, VerifyRejectsWrongKey) {
  const auto kp1 = ed25519_keypair(core::Bytes(32, 1));
  const auto kp2 = ed25519_keypair(core::Bytes(32, 2));
  const auto msg = core::to_bytes("vc claim");
  const auto sig = ed25519_sign(kp1, msg);
  EXPECT_FALSE(ed25519_verify(core::BytesView(kp2.public_key.data(), 32), msg,
                              core::BytesView(sig.data(), 64)));
}

TEST(Ed25519, VerifyRejectsMalformedInputs) {
  const auto kp = ed25519_keypair(core::Bytes(32, 3));
  const auto sig = ed25519_sign(kp, {});
  EXPECT_FALSE(ed25519_verify(core::Bytes(31, 0), {},
                              core::BytesView(sig.data(), 64)));
  EXPECT_FALSE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), {},
                              core::Bytes(63, 0)));
  // Non-canonical S >= L must be rejected.
  core::Bytes bad(sig.begin(), sig.end());
  for (int i = 32; i < 64; ++i) bad[i] = 0xFF;
  EXPECT_FALSE(ed25519_verify(core::BytesView(kp.public_key.data(), 32), {},
                              bad));
}

}  // namespace
}  // namespace avsec::crypto
