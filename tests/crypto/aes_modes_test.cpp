#include <gtest/gtest.h>

#include "avsec/crypto/drbg.hpp"
#include "avsec/crypto/modes.hpp"
#include "reference/reference.hpp"

namespace avsec::crypto {
namespace {

using core::from_hex;
using core::to_hex;

TEST(Aes, Fips197Aes128Vector) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(core::BytesView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256Vector) {
  const Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(core::BytesView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(from_hex("00")), std::invalid_argument);
  EXPECT_THROW(Aes(core::Bytes(24, 0)), std::invalid_argument);  // no AES-192
}

TEST(AesCtr, KeystreamIsDeterministicAndCryptIsInvolutive) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes::Block iv{};
  iv[15] = 1;
  AesCtr a(key, iv), b(key, iv);
  EXPECT_EQ(a.keystream(100), b.keystream(100));

  AesCtr enc(key, iv), dec(key, iv);
  core::Bytes msg = core::to_bytes("counter mode stream over the IVN");
  const core::Bytes orig = msg;
  enc.crypt(msg);
  EXPECT_NE(msg, orig);
  dec.crypt(msg);
  EXPECT_EQ(msg, orig);
}

TEST(AesGcm, NistTestCase1EmptyEverything) {
  const AesGcm gcm(from_hex("00000000000000000000000000000000"));
  core::Bytes tag;
  const auto ct = gcm.seal(from_hex("000000000000000000000000"), {}, {}, tag);
  EXPECT_TRUE(ct.empty());
  // Tag equals E_K(J0) when both AAD and plaintext are empty; the companion
  // TC2 (full published ct+tag) cross-validates the same E_K(J0) value.
  EXPECT_EQ(to_hex(tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcm, NistTestCase2SingleBlock) {
  const AesGcm gcm(from_hex("00000000000000000000000000000000"));
  core::Bytes tag;
  const auto ct =
      gcm.seal(from_hex("000000000000000000000000"), {},
               from_hex("00000000000000000000000000000000"), tag);
  EXPECT_EQ(to_hex(ct), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(to_hex(tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

// A GCM known answer, checked on the library and on the kept reference
// (so a mistyped vector fails twice, not once), then opened back.
void expect_gcm_vector(const char* key, const char* iv, const char* aad,
                       const char* pt, const char* ct, const char* tag) {
  const auto k = from_hex(key), n = from_hex(iv), a = from_hex(aad),
             p = from_hex(pt);
  core::Bytes got_tag, ref_tag;
  const AesGcm gcm(k);
  EXPECT_EQ(to_hex(gcm.seal(n, a, p, got_tag)), ct);
  EXPECT_EQ(to_hex(got_tag), tag);
  EXPECT_EQ(to_hex(ref::AesGcm(k).seal(n, a, p, ref_tag)), ct);
  EXPECT_EQ(to_hex(ref_tag), tag);
  const auto back = gcm.open(n, a, from_hex(ct), from_hex(tag));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

constexpr const char* kGcmTc3Plaintext =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
// Test cases 4 and 16 use the first 60 bytes.
constexpr const char* kGcmTc4Plaintext =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";

TEST(AesGcm, NistTestCase3FourBlocks) {
  expect_gcm_vector(
      "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", "",
      kGcmTc3Plaintext,
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
      "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(AesGcm, NistTestCase4AadAndPartialBlock) {
  expect_gcm_vector(
      "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
      "feedfacedeadbeeffeedfacedeadbeefabaddad2", kGcmTc4Plaintext,
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
      "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(AesGcm, NistTestCase16Aes256AadAndPartialBlock) {
  expect_gcm_vector(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
      "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
      kGcmTc4Plaintext,
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
      "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST(AesGcm, SealOpenRoundTripWithAad) {
  const AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  const auto aad = core::to_bytes("frame header");
  const auto pt = core::to_bytes("secure onboard communication payload");
  core::Bytes tag;
  const auto ct = gcm.seal(iv, aad, pt, tag);
  const auto back = gcm.open(iv, aad, ct, tag);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pt);
}

TEST(AesGcm, OpenFailsOnTamperedCiphertext) {
  const AesGcm gcm(core::Bytes(16, 0x42));
  const core::Bytes iv(12, 1);
  core::Bytes tag;
  auto ct = gcm.seal(iv, {}, core::to_bytes("hello"), tag);
  ct[0] ^= 1;
  EXPECT_FALSE(gcm.open(iv, {}, ct, tag).has_value());
}

TEST(AesGcm, OpenFailsOnTamperedAadOrTagOrIv) {
  const AesGcm gcm(core::Bytes(16, 0x42));
  const core::Bytes iv(12, 1);
  const auto aad = core::to_bytes("aad");
  core::Bytes tag;
  const auto ct = gcm.seal(iv, aad, core::to_bytes("hello"), tag);

  EXPECT_FALSE(gcm.open(iv, core::to_bytes("axd"), ct, tag).has_value());

  core::Bytes bad_tag = tag;
  bad_tag[3] ^= 0x80;
  EXPECT_FALSE(gcm.open(iv, aad, ct, bad_tag).has_value());

  core::Bytes bad_iv = iv;
  bad_iv[0] ^= 1;
  EXPECT_FALSE(gcm.open(bad_iv, aad, ct, tag).has_value());
}

TEST(AesGcm, TruncatedTagsWork) {
  const AesGcm gcm(core::Bytes(16, 7));
  const core::Bytes iv(12, 9);
  core::Bytes tag;
  const auto ct = gcm.seal(iv, {}, core::to_bytes("canse"), tag, 8);
  EXPECT_EQ(tag.size(), 8u);
  EXPECT_TRUE(gcm.open(iv, {}, ct, tag).has_value());
  EXPECT_THROW(
      { core::Bytes t2; gcm.seal(iv, {}, {}, t2, 3); },
      std::invalid_argument);
}

// open() refuses a tag outside seal()'s 4..16-byte range before comparing:
// an empty tag once matched the empty expectation and opened forged
// ciphertext.
TEST(AesGcm, OpenRefusesTagsShorterThan4OrLongerThan16) {
  const AesGcm gcm(core::Bytes(16, 0x42));
  const core::Bytes iv(12, 1);
  core::Bytes tag;
  const auto ct = gcm.seal(iv, {}, core::to_bytes("hello"), tag);
  auto forged = ct;
  forged[0] ^= 1;
  EXPECT_FALSE(gcm.open(iv, {}, forged, core::BytesView{}).has_value());
  for (std::size_t len = 0; len < 4; ++len) {
    const core::Bytes prefix(tag.begin(), tag.begin() + len);
    EXPECT_FALSE(gcm.open(iv, {}, ct, prefix).has_value()) << "len " << len;
    EXPECT_FALSE(gcm.open(iv, {}, forged, prefix).has_value()) << "len " << len;
  }
  core::Bytes long_tag = tag;
  long_tag.push_back(0);
  EXPECT_FALSE(gcm.open(iv, {}, ct, long_tag).has_value());
  // The same tag at 4 bytes is accepted: the bound is inclusive.
  const core::Bytes four(tag.begin(), tag.begin() + 4);
  EXPECT_TRUE(gcm.open(iv, {}, ct, four).has_value());
}

// Property sweep: any single bit flip anywhere in (ct||tag) must fail auth.
class GcmBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(GcmBitFlip, AnySingleBitFlipRejected) {
  const AesGcm gcm(core::Bytes(16, 0xA5));
  const core::Bytes iv(12, 3);
  const auto pt = core::to_bytes("bitflip sweep payload!");
  core::Bytes tag;
  core::Bytes ct = gcm.seal(iv, {}, pt, tag);
  core::Bytes all = ct;
  core::append(all, tag);
  const int bit = GetParam();
  ASSERT_LT(static_cast<std::size_t>(bit / 8), all.size());
  all[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
  const core::Bytes ct2(all.begin(), all.begin() + ct.size());
  const core::Bytes tag2(all.begin() + ct.size(), all.end());
  EXPECT_FALSE(gcm.open(iv, {}, ct2, tag2).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllBits, GcmBitFlip,
                         ::testing::Range(0, (22 + 16) * 8, 7));

TEST(AesCmac, Rfc4493EmptyMessage) {
  const AesCmac cmac(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(to_hex(cmac.mac({})), "bb1d6929e95937287fa37d129b756746");
}

TEST(AesCmac, Rfc4493SixteenByteMessage) {
  const AesCmac cmac(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(to_hex(cmac.mac(from_hex("6bc1bee22e409f96e93d7e117393172a"))),
            "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(AesCmac, Rfc4493FortyByteMessage) {
  const AesCmac cmac(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto msg = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411");
  EXPECT_EQ(to_hex(cmac.mac(msg)), "dfa66747de9ae63030ca32611497c827");
}

TEST(AesCmac, TruncationTakesMsbFirst) {
  const AesCmac cmac(core::Bytes(16, 1));
  const auto full = cmac.mac(core::to_bytes("secoc"));
  const auto trunc = cmac.mac_truncated(core::to_bytes("secoc"), 3);
  EXPECT_EQ(trunc.size(), 3u);
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

TEST(AesCmac, MessageSensitivity) {
  const AesCmac cmac(core::Bytes(16, 1));
  EXPECT_NE(cmac.mac(core::to_bytes("msg-a")), cmac.mac(core::to_bytes("msg-b")));
}

TEST(CtrDrbg, DeterministicPerSeed) {
  CtrDrbg a(std::uint64_t{123}), b(std::uint64_t{123}), c(std::uint64_t{124});
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_NE(a.generate(64), c.generate(64));
}

TEST(CtrDrbg, ReseedChangesStream) {
  CtrDrbg a(std::uint64_t{5}), b(std::uint64_t{5});
  a.generate(16);
  b.generate(16);
  b.reseed(core::to_bytes("fresh entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(CtrDrbg, BlockReturns16Bytes) {
  CtrDrbg d(std::uint64_t{9});
  const auto b1 = d.block();
  const auto b2 = d.block();
  EXPECT_NE(b1, b2);
}

}  // namespace
}  // namespace avsec::crypto
