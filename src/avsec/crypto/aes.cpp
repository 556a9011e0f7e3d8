#include "avsec/crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

namespace avsec::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

constexpr std::uint32_t rotr8(std::uint32_t w) { return (w >> 8) | (w << 24); }

/// Encryption T-tables: kTe[0][x] is the MixColumns column of S(x) in row
/// 0, (2·S, S, S, 3·S) big-endian; kTe[r] is kTe[0] rotated right 8r bits
/// for row r. One round is 16 lookups and 16 XORs.
struct TeTables {
  std::uint32_t t[4][256];
};

constexpr TeTables make_te() {
  TeTables te{};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    std::uint32_t w = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
                      (std::uint32_t{s} << 8) | s3;
    for (int r = 0; r < 4; ++r) {
      te.t[r][x] = w;
      w = rotr8(w);
    }
  }
  return te;
}

constexpr TeTables kTe = make_te();

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

}  // namespace

Aes::Aes(BytesView key) {
  if (key.size() != 16 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16 or 32 bytes");
  }
  rounds_ = key.size() == 16 ? 10 : 14;
  expand_key(key);
}

void Aes::expand_key(BytesView key) {
  const std::size_t nk = key.size() / 4;          // words in key
  const std::size_t nw = 4 * (rounds_ + 1);       // total words
  std::uint8_t w[15 * 16];
  std::memcpy(w, key.data(), key.size());
  std::uint8_t rcon = 0x01;
  for (std::size_t i = nk; i < nw; ++i) {
    std::uint8_t t[4];
    std::memcpy(t, &w[4 * (i - 1)], 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ rcon);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : t) b = kSbox[b];
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + j] = w[4 * (i - nk) + j] ^ t[j];
    }
  }
  for (std::size_t i = 0; i < nw; ++i) rk_[i] = load_be32(&w[4 * i]);
}

Aes::Block Aes::encrypt(const Block& in) const {
  Block out{};
  encrypt_block(in.data(), out.data());
  return out;
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  // State as four big-endian column words; row r of column c is byte r.
  const std::uint32_t* rk = rk_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  const auto& t = kTe.t;
  // SubBytes + ShiftRows + MixColumns + AddRoundKey: column c takes row r
  // from column c + r.
  for (int round = 1; round < rounds_; ++round) {
    rk += 4;
    const std::uint32_t t0 = t[0][s0 >> 24] ^ t[1][(s1 >> 16) & 0xFF] ^
                             t[2][(s2 >> 8) & 0xFF] ^ t[3][s3 & 0xFF] ^ rk[0];
    const std::uint32_t t1 = t[0][s1 >> 24] ^ t[1][(s2 >> 16) & 0xFF] ^
                             t[2][(s3 >> 8) & 0xFF] ^ t[3][s0 & 0xFF] ^ rk[1];
    const std::uint32_t t2 = t[0][s2 >> 24] ^ t[1][(s3 >> 16) & 0xFF] ^
                             t[2][(s0 >> 8) & 0xFF] ^ t[3][s1 & 0xFF] ^ rk[2];
    const std::uint32_t t3 = t[0][s3 >> 24] ^ t[1][(s0 >> 16) & 0xFF] ^
                             t[2][(s1 >> 8) & 0xFF] ^ t[3][s2 & 0xFF] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // Final round: no MixColumns, so plain S-box bytes.
  rk += 4;
  const auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                       std::uint32_t d) {
    return (std::uint32_t{kSbox[a >> 24]} << 24) |
           (std::uint32_t{kSbox[(b >> 16) & 0xFF]} << 16) |
           (std::uint32_t{kSbox[(c >> 8) & 0xFF]} << 8) | kSbox[d & 0xFF];
  };
  store_be32(out, last(s0, s1, s2, s3) ^ rk[0]);
  store_be32(out + 4, last(s1, s2, s3, s0) ^ rk[1]);
  store_be32(out + 8, last(s2, s3, s0, s1) ^ rk[2]);
  store_be32(out + 12, last(s3, s0, s1, s2) ^ rk[3]);
}

}  // namespace avsec::crypto
