#include <gtest/gtest.h>

#include "avsec/datalayer/access_control.hpp"

namespace avsec::datalayer {
namespace {

struct AccessFixture {
  DataOwner owner{core::Bytes(32, 0xA1), /*n=*/5, /*k=*/3};
  Bytes trip_log = core::to_bytes("trip: home -> work, 14.2 km, 07:42");
  SealedRecord record = owner.seal("trip-001", trip_log);
};

TEST(AccessControl, GrantedConsumerReadsRecord) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  const auto data = consume_record(fx.record, grant, "insurance-app",
                                   fx.owner.servers(), fx.owner.threshold());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, fx.trip_log);
}

TEST(AccessControl, NoGrantNoData) {
  AccessFixture fx;
  AccessGrant forged;
  forged.record_id = "trip-001";
  forged.consumer = "data-broker";
  // No owner signature.
  EXPECT_FALSE(consume_record(fx.record, forged, "data-broker",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, GrantIsBoundToConsumer) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  // A different party replays the insurance app's grant.
  EXPECT_FALSE(consume_record(fx.record, grant, "data-broker",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, GrantIsBoundToRecord) {
  AccessFixture fx;
  const auto other_record = fx.owner.seal("trip-002", core::to_bytes("x"));
  auto grant = fx.owner.grant("trip-001", "insurance-app");
  grant.record_id = "trip-002";  // re-point the signed grant
  EXPECT_FALSE(consume_record(other_record, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, RevocationStopsFutureReads) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  ASSERT_TRUE(consume_record(fx.record, grant, "insurance-app",
                             fx.owner.servers(), fx.owner.threshold())
                  .has_value());
  fx.owner.revoke("trip-001", "insurance-app");
  EXPECT_FALSE(consume_record(fx.record, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, MinorityOfServersCannotServeData) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  // Only 2 of 5 servers remain (below threshold 3).
  std::vector<KeyServer> coalition;
  coalition.push_back(fx.owner.servers()[0]);
  coalition.push_back(fx.owner.servers()[1]);
  EXPECT_FALSE(consume_record(fx.record, grant, "insurance-app", coalition,
                              fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, ThresholdSurvivesServerOutages) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  // Two servers down: three remain, exactly the threshold.
  std::vector<KeyServer> remaining(fx.owner.servers().begin() + 2,
                                   fx.owner.servers().end());
  EXPECT_TRUE(consume_record(fx.record, grant, "insurance-app", remaining,
                             fx.owner.threshold())
                  .has_value());
}

TEST(AccessControl, TamperedCiphertextDetected) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  auto tampered = fx.record;
  tampered.ciphertext[0] ^= 1;
  EXPECT_FALSE(consume_record(tampered, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

// A stored record whose tag field was cleared (or cut below GCM's 4-byte
// minimum) must be refused, tampered ciphertext or not: an empty tag once
// compared equal to an empty expectation and released forged plaintext.
TEST(AccessControl, ClearedOrShortTagRefused) {
  AccessFixture fx;
  const auto grant = fx.owner.grant("trip-001", "insurance-app");
  auto forged = fx.record;
  forged.ciphertext[0] ^= 1;
  forged.tag.clear();
  EXPECT_FALSE(consume_record(forged, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
  auto cleared = fx.record;
  cleared.tag.clear();
  EXPECT_FALSE(consume_record(cleared, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
  auto short_tag = fx.record;
  short_tag.tag.resize(3);
  EXPECT_FALSE(consume_record(short_tag, grant, "insurance-app",
                              fx.owner.servers(), fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, RecordsUseIndependentKeys) {
  AccessFixture fx;
  const auto r2 = fx.owner.seal("trip-002", fx.trip_log);
  // Same plaintext, different key/IV: ciphertexts differ.
  EXPECT_NE(r2.ciphertext, fx.record.ciphertext);
  // A grant for trip-001 opens nothing about trip-002.
  const auto grant = fx.owner.grant("trip-001", "app");
  EXPECT_FALSE(consume_record(r2, grant, "app", fx.owner.servers(),
                              fx.owner.threshold())
                   .has_value());
}

TEST(AccessControl, ServersRecordRefusals) {
  AccessFixture fx;
  AccessGrant forged;
  forged.record_id = "trip-001";
  forged.consumer = "thief";
  consume_record(fx.record, forged, "thief", fx.owner.servers(),
                 fx.owner.threshold());
  std::uint64_t refusals = 0;
  for (auto& s : fx.owner.servers()) refusals += s.refusals();
  EXPECT_GE(refusals, static_cast<std::uint64_t>(fx.owner.threshold()));
}

}  // namespace
}  // namespace avsec::datalayer
