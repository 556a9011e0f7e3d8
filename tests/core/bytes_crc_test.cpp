#include <gtest/gtest.h>

#include "avsec/core/bytes.hpp"
#include "avsec/core/crc.hpp"
#include "avsec/core/table.hpp"

namespace avsec::core {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, AppendBeAndReadBeRoundTrip) {
  Bytes buf;
  append_be(buf, 0x0102030405060708ULL, 8);
  append_be(buf, 0xBEEF, 2);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(read_be(buf, 0, 8), 0x0102030405060708ULL);
  EXPECT_EQ(read_be(buf, 8, 2), 0xBEEFu);
}

TEST(Bytes, ReadBeOutOfRangeThrows) {
  const Bytes buf = {1, 2, 3};
  EXPECT_THROW(read_be(buf, 2, 2), std::out_of_range);
  EXPECT_THROW(read_be(buf, 0, 4), std::out_of_range);
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Crc, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32_ieee(to_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc, Crc32Empty) { EXPECT_EQ(crc32_ieee(Bytes{}), 0u); }

TEST(Crc, Crc8DetectsSingleBitFlips) {
  const Bytes msg = to_bytes("automotive");
  const auto ref = crc8_sae_j1850(msg);
  for (std::size_t i = 0; i < msg.size() * 8; ++i) {
    Bytes flipped = msg;
    flipped[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(crc8_sae_j1850(flipped), ref) << "undetected flip at bit " << i;
  }
}

TEST(Crc, Crc15And17And21DetectSingleBitFlips) {
  const Bytes msg = from_hex("deadbeefcafe0123456789");
  const auto r15 = crc15_can(msg);
  const auto r17 = crc17_canfd(msg);
  const auto r21 = crc21_canfd(msg);
  for (std::size_t i = 0; i < msg.size() * 8; ++i) {
    Bytes flipped = msg;
    flipped[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(crc15_can(flipped), r15);
    EXPECT_NE(crc17_canfd(flipped), r17);
    EXPECT_NE(crc21_canfd(flipped), r21);
  }
}

TEST(Crc, WidthBounds) {
  const Bytes msg = to_bytes("x");
  EXPECT_LT(crc15_can(msg), 1u << 15);
  EXPECT_LT(crc17_canfd(msg), 1u << 17);
  EXPECT_LT(crc21_canfd(msg), 1u << 21);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, NumAndPctFormat) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.256, 1), "25.6%");
}

}  // namespace
}  // namespace avsec::core
