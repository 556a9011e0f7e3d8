// Reference AES (encryption only), GCM and CMAC: the byte-wise block
// cipher and bit-serial GHASH the library used before T-tables and Shoup
// tables. See reference.hpp.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "reference.hpp"

namespace avsec::crypto::ref {

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

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

/// GF(2^128) multiplication, bit-serial with the GCM reduction polynomial
/// R = 0xE1 || 0^120.
Aes::Block gf_mul(const Aes::Block& x, const Aes::Block& y) {
  Aes::Block z{};
  Aes::Block v = y;
  for (int i = 0; i < 128; ++i) {
    const bool xi = (x[i / 8] >> (7 - i % 8)) & 1;
    if (xi) {
      for (int j = 0; j < 16; ++j) z[j] ^= v[j];
    }
    const bool lsb = v[15] & 1;
    // v >>= 1 (big-endian bit order).
    for (int j = 15; j > 0; --j) {
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xE1;
  }
  return z;
}

Aes::Block left_shift(const Aes::Block& in, bool& carry) {
  Aes::Block out{};
  carry = (in[0] & 0x80) != 0;
  for (int i = 0; i < 15; ++i) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | (in[i + 1] >> 7));
  }
  out[15] = static_cast<std::uint8_t>(in[15] << 1);
  return out;
}

}  // namespace

Aes::Aes(BytesView key) {
  if (key.size() != 16 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16 or 32 bytes");
  }
  rounds_ = key.size() == 16 ? 10 : 14;
  const std::size_t nk = key.size() / 4;
  const std::size_t nw = 4 * (rounds_ + 1);
  std::uint8_t w[15 * 16];
  std::memcpy(w, key.data(), key.size());
  std::uint8_t rcon = 0x01;
  for (std::size_t i = nk; i < nw; ++i) {
    std::uint8_t t[4];
    std::memcpy(t, &w[4 * (i - 1)], 4);
    if (i % nk == 0) {
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
  std::memcpy(rk_.data(), w, nw * 4);
}

Aes::Block Aes::encrypt(const Block& in) const {
  Block out{};
  encrypt_block(in.data(), out.data());
  return out;
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ rk_[i];
  for (int round = 1; round <= rounds_; ++round) {
    // SubBytes.
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state stored column-major: s[4c + r]).
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * c + r] = s[4 * ((c + r) % 4) + r];
      }
    }
    if (round < rounds_) {
      // MixColumns.
      for (int c = 0; c < 4; ++c) {
        const std::uint8_t a0 = t[4 * c], a1 = t[4 * c + 1], a2 = t[4 * c + 2],
                           a3 = t[4 * c + 3];
        s[4 * c] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        s[4 * c + 1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        s[4 * c + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        s[4 * c + 3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    } else {
      std::memcpy(s, t, 16);
    }
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) s[i] ^= rk_[16 * round + i];
  }
  std::memcpy(out, s, 16);
}

AesGcm::AesGcm(BytesView key) : aes_(key) { h_ = aes_.encrypt(Block{}); }

AesGcm::Block AesGcm::ghash(BytesView aad, BytesView ct) const {
  Block y{};
  auto absorb = [&](BytesView data) {
    for (std::size_t off = 0; off < data.size(); off += 16) {
      Block b{};
      const std::size_t n = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(b.data(), data.data() + off, n);
      for (int i = 0; i < 16; ++i) y[i] ^= b[i];
      y = gf_mul(y, h_);
    }
  };
  absorb(aad);
  absorb(ct);
  Block lens{};
  const std::uint64_t abits = aad.size() * 8, cbits = ct.size() * 8;
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<std::uint8_t>(abits >> (56 - 8 * i));
    lens[8 + i] = static_cast<std::uint8_t>(cbits >> (56 - 8 * i));
  }
  for (int i = 0; i < 16; ++i) y[i] ^= lens[i];
  return gf_mul(y, h_);
}

Bytes AesGcm::ctr_crypt(const Block& j0, BytesView data) const {
  Block ctr = j0;
  auto inc32 = [](Block& b) {
    for (int i = 15; i >= 12; --i) {
      if (++b[i] != 0) break;
    }
  };
  inc32(ctr);
  Bytes out(data.begin(), data.end());
  std::size_t off = 0;
  while (off < out.size()) {
    const Block ks = aes_.encrypt(ctr);
    const std::size_t n = std::min<std::size_t>(16, out.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] ^= ks[i];
    inc32(ctr);
    off += n;
  }
  return out;
}

Bytes AesGcm::seal(BytesView iv, BytesView aad, BytesView plaintext,
                   Bytes& tag, std::size_t tag_len) const {
  if (iv.size() != 12) throw std::invalid_argument("AesGcm: IV must be 12B");
  if (tag_len < 4 || tag_len > 16) {
    throw std::invalid_argument("AesGcm: tag_len out of range");
  }
  Block j0{};
  std::memcpy(j0.data(), iv.data(), 12);
  j0[15] = 1;
  Bytes ct = ctr_crypt(j0, plaintext);
  const Block s = ghash(aad, ct);
  const Block ek_j0 = aes_.encrypt(j0);
  tag.assign(tag_len, 0);
  for (std::size_t i = 0; i < tag_len; ++i) tag[i] = s[i] ^ ek_j0[i];
  return ct;
}

std::optional<Bytes> AesGcm::open(BytesView iv, BytesView aad,
                                  BytesView ciphertext, BytesView tag) const {
  if (iv.size() != 12) throw std::invalid_argument("AesGcm: IV must be 12B");
  if (tag.size() < 4 || tag.size() > 16) return std::nullopt;
  Block j0{};
  std::memcpy(j0.data(), iv.data(), 12);
  j0[15] = 1;
  const Block s = ghash(aad, ciphertext);
  const Block ek_j0 = aes_.encrypt(j0);
  Bytes expect(tag.size());
  for (std::size_t i = 0; i < tag.size(); ++i) expect[i] = s[i] ^ ek_j0[i];
  if (!core::ct_equal(expect, tag)) return std::nullopt;
  return ctr_crypt(j0, ciphertext);
}

AesCmac::AesCmac(BytesView key) : aes_(key) {
  const Aes::Block l = aes_.encrypt(Aes::Block{});
  bool carry = false;
  k1_ = left_shift(l, carry);
  if (carry) k1_[15] ^= 0x87;
  k2_ = left_shift(k1_, carry);
  if (carry) k2_[15] ^= 0x87;
}

Bytes AesCmac::mac(BytesView message) const {
  const std::size_t n = message.size();
  const std::size_t blocks = n == 0 ? 1 : (n + 15) / 16;
  const bool complete = n > 0 && n % 16 == 0;

  Aes::Block x{};
  for (std::size_t b = 0; b + 1 < blocks; ++b) {
    for (int i = 0; i < 16; ++i) x[i] ^= message[16 * b + i];
    x = aes_.encrypt(x);
  }
  Aes::Block last{};
  const std::size_t off = 16 * (blocks - 1);
  const std::size_t rem = n - off;
  for (std::size_t i = 0; i < rem; ++i) last[i] = message[off + i];
  if (!complete) last[rem] = 0x80;
  const Aes::Block& k = complete ? k1_ : k2_;
  for (int i = 0; i < 16; ++i) x[i] ^= last[i] ^ k[i];
  const Aes::Block t = aes_.encrypt(x);
  return Bytes(t.begin(), t.end());
}

}  // namespace avsec::crypto::ref
