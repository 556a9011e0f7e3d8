#include "avsec/crypto/modes.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace avsec::crypto {

AesCtr::AesCtr(BytesView key, const Aes::Block& iv) : aes_(key), counter_(iv) {}

void AesCtr::next_block() {
  block_ = aes_.encrypt(counter_);
  // Increment the full 128-bit counter, big-endian.
  for (int i = 15; i >= 0; --i) {
    if (++counter_[i] != 0) break;
  }
  used_ = 0;
}

Bytes AesCtr::keystream(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (used_ == Aes::kBlockSize) next_block();
    out[i] = block_[used_++];
  }
  return out;
}

void AesCtr::crypt(Bytes& data) {
  const Bytes ks = keystream(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) data[i] ^= ks[i];
}

namespace {

/// Reduction constants for Shoup's 4-bit GHASH: shifting the 128-bit
/// accumulator right by 4 drops the low nibble n, which folds back as
/// n * R (R = 0xE1 || 0^120) into the top 16 bits.
constexpr std::uint16_t kReduce4[16] = {
    0x0000, 0x1C20, 0x3840, 0x2460, 0x7080, 0x6CA0, 0x48C0, 0x54E0,
    0xE100, 0xFD20, 0xD940, 0xC560, 0x9180, 0x8DA0, 0xA9C0, 0xB5E0};

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

AesGcm::AesGcm(BytesView key) : aes_(key) {
  const Block h = aes_.encrypt(Block{});
  // Entry 8 (x^0) is H; 4, 2, 1 are H * x, x^2, x^3 (a right shift in
  // GCM's reflected bit order, folding the dropped bit back through R);
  // every other entry is the XOR of the powers its bits select.
  std::uint64_t hi = load_be64(h.data()), lo = load_be64(h.data() + 8);
  h_hi_[8] = hi;
  h_lo_[8] = lo;
  for (int i = 4; i > 0; i >>= 1) {
    const std::uint64_t fold = (lo & 1) * 0xE100000000000000ULL;
    lo = (hi << 63) | (lo >> 1);
    hi = (hi >> 1) ^ fold;
    h_hi_[i] = hi;
    h_lo_[i] = lo;
  }
  for (int i = 2; i <= 8; i *= 2) {
    for (int j = 1; j < i; ++j) {
      h_hi_[i + j] = h_hi_[i] ^ h_hi_[j];
      h_lo_[i + j] = h_lo_[i] ^ h_lo_[j];
    }
  }
}

void AesGcm::mul_h(std::uint64_t& hi, std::uint64_t& lo) const {
  // Horner over the 32 nibbles of y, last byte's low nibble first: each
  // step multiplies the accumulator z by x^4 and adds nibble * H.
  std::uint64_t zh = 0, zl = 0;
  for (int i = 31; i >= 0; --i) {
    const std::uint64_t half = i < 16 ? hi : lo;
    const unsigned nibble =
        static_cast<unsigned>(half >> (4 * (15 - i % 16))) & 0xF;
    const unsigned rem = static_cast<unsigned>(zl) & 0xF;
    zl = (zh << 60) | (zl >> 4);
    zh = (zh >> 4) ^ (std::uint64_t{kReduce4[rem]} << 48);
    zh ^= h_hi_[nibble];
    zl ^= h_lo_[nibble];
  }
  hi = zh;
  lo = zl;
}

AesGcm::Block AesGcm::ghash(BytesView aad, BytesView ct) const {
  std::uint64_t hi = 0, lo = 0;
  auto absorb = [&](BytesView data) {
    for (std::size_t off = 0; off < data.size(); off += 16) {
      std::uint8_t b[16] = {};
      const std::size_t n = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(b, data.data() + off, n);
      hi ^= load_be64(b);
      lo ^= load_be64(b + 8);
      mul_h(hi, lo);
    }
  };
  absorb(aad);
  absorb(ct);
  hi ^= std::uint64_t{aad.size()} * 8;
  lo ^= std::uint64_t{ct.size()} * 8;
  mul_h(hi, lo);
  Block y{};
  for (int i = 0; i < 8; ++i) {
    y[i] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
    y[8 + i] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
  }
  return y;
}

Bytes AesGcm::ctr_crypt(const Block& j0, BytesView data) const {
  Block ctr = j0;
  // GCM increments only the low 32 bits; start from J0 + 1.
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
  Block s = ghash(aad, ct);
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
  const Aes::Block zero{};
  const Aes::Block l = aes_.encrypt(zero);
  bool carry = false;
  k1_ = left_shift(l, carry);
  if (carry) k1_[15] ^= 0x87;
  k2_ = left_shift(k1_, carry);
  if (carry) k2_[15] ^= 0x87;
}

Aes::Block AesCmac::left_shift(const Aes::Block& in, bool& carry) {
  Aes::Block out{};
  carry = (in[0] & 0x80) != 0;
  for (int i = 0; i < 15; ++i) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | (in[i + 1] >> 7));
  }
  out[15] = static_cast<std::uint8_t>(in[15] << 1);
  return out;
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
  // Last block, padded and keyed.
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

Bytes AesCmac::mac_truncated(BytesView message, std::size_t len) const {
  Bytes full = mac(message);
  full.resize(std::min(len, full.size()));
  return full;
}

}  // namespace avsec::crypto
