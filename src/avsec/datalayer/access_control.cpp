#include "avsec/datalayer/access_control.hpp"

namespace avsec::datalayer {

Bytes AccessGrant::to_be_signed() const {
  Bytes out = core::to_bytes("access-grant");
  core::append_be(out, record_id.size(), 2);
  core::append(out, core::to_bytes(record_id));
  core::append_be(out, consumer.size(), 2);
  core::append(out, core::to_bytes(consumer));
  return out;
}

KeyServer::KeyServer(int index, std::array<std::uint8_t, 32> owner_key)
    : index_(index), owner_key_(owner_key) {}

void KeyServer::store_share(const std::string& record_id,
                            const crypto::ShamirShare& share) {
  shares_[record_id] = share;
}

std::optional<crypto::ShamirShare> KeyServer::release(
    const AccessGrant& grant, const std::string& consumer) {
  auto refuse = [&]() -> std::optional<crypto::ShamirShare> {
    ++refusals_;
    return std::nullopt;
  };
  // The requester must be the grantee (authenticated transport assumed).
  if (consumer != grant.consumer) return refuse();
  if (revoked_.count({grant.record_id, grant.consumer})) return refuse();
  if (!crypto::ed25519_verify(BytesView(owner_key_.data(), 32),
                              grant.to_be_signed(),
                              BytesView(grant.owner_signature.data(), 64))) {
    return refuse();
  }
  const auto it = shares_.find(grant.record_id);
  if (it == shares_.end()) return refuse();
  return it->second;
}

void KeyServer::revoke(const std::string& record_id,
                       const std::string& consumer) {
  revoked_.insert({record_id, consumer});
}

DataOwner::DataOwner(BytesView seed32, int n, int k)
    : kp_(crypto::ed25519_keypair(seed32)),
      drbg_(seed32), k_(k) {
  for (int i = 0; i < n; ++i) {
    servers_.emplace_back(i + 1, kp_.public_key);
  }
}

SealedRecord DataOwner::seal(const std::string& record_id,
                             BytesView plaintext) {
  const Bytes key = drbg_.generate(16);
  const Bytes iv = drbg_.generate(12);
  crypto::AesGcm gcm(key);
  SealedRecord record;
  record.record_id = record_id;
  record.iv = iv;
  record.ciphertext =
      gcm.seal(iv, core::to_bytes(record_id), plaintext, record.tag);

  const auto shares =
      crypto::shamir_split(key, static_cast<int>(servers_.size()), k_,
                           0x5EA1ED ^ ++counter_);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i].store_share(record_id, shares[i]);
  }
  return record;
}

AccessGrant DataOwner::grant(const std::string& record_id,
                             const std::string& consumer) {
  AccessGrant g;
  g.record_id = record_id;
  g.consumer = consumer;
  g.owner_signature = crypto::ed25519_sign(kp_, g.to_be_signed());
  return g;
}

void DataOwner::revoke(const std::string& record_id,
                       const std::string& consumer) {
  for (auto& server : servers_) server.revoke(record_id, consumer);
}

std::optional<Bytes> consume_record(const SealedRecord& record,
                                    const AccessGrant& grant,
                                    const std::string& consumer,
                                    std::vector<KeyServer>& servers,
                                    int threshold) {
  std::vector<crypto::ShamirShare> shares;
  for (auto& server : servers) {
    if (static_cast<int>(shares.size()) >= threshold) break;
    if (auto share = server.release(grant, consumer)) {
      shares.push_back(*share);
    }
  }
  if (static_cast<int>(shares.size()) < threshold) return std::nullopt;
  const Bytes key = crypto::shamir_combine(shares);
  crypto::AesGcm gcm(key);
  return gcm.open(record.iv, core::to_bytes(record.record_id),
                  record.ciphertext, record.tag);
}

}  // namespace avsec::datalayer
