// Owner-controlled data access (paper §VIII: "the widespread distribution
// of data within such systems necessitates controlled access mechanisms
// that allow data owners to retain the rights to grant or restrict
// access" — the SeeMQTT design point, modeled with threshold key escrow):
//
// - Each record is sealed under a fresh data key (AES-GCM).
// - The data key is Shamir-split across n independent key servers with
//   threshold k: no single server (or small coalition) can read the data.
// - The *owner* grants a consumer access per record; servers release their
//   share only for grants the owner signed. Revocation removes the grant;
//   future releases stop immediately.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "avsec/crypto/drbg.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/modes.hpp"
#include "avsec/crypto/shamir.hpp"

namespace avsec::datalayer {

using core::Bytes;
using core::BytesView;

/// A sealed record as stored by the (untrusted) broker.
struct SealedRecord {
  std::string record_id;
  Bytes iv;          // 12B
  Bytes ciphertext;
  Bytes tag;         // 16B
};

/// A signed access grant: owner authorizes `consumer` for `record_id`.
struct AccessGrant {
  std::string record_id;
  std::string consumer;
  crypto::Ed25519Signature owner_signature{};

  Bytes to_be_signed() const;
};

/// One of n independent key servers holding a share of each record key.
class KeyServer {
 public:
  KeyServer(int index, std::array<std::uint8_t, 32> owner_key);

  void store_share(const std::string& record_id,
                   const crypto::ShamirShare& share);

  /// Releases the share only for a validly signed, unrevoked grant.
  std::optional<crypto::ShamirShare> release(const AccessGrant& grant,
                                             const std::string& consumer);

  /// Owner-signed revocation (modeled as a direct owner call).
  void revoke(const std::string& record_id, const std::string& consumer);

  std::uint64_t refusals() const { return refusals_; }

 private:
  int index_;
  std::array<std::uint8_t, 32> owner_key_;
  std::map<std::string, crypto::ShamirShare> shares_;
  std::set<std::pair<std::string, std::string>> revoked_;
  std::uint64_t refusals_ = 0;
};

/// The data owner: seals records, distributes shares, signs grants.
class DataOwner {
 public:
  /// `n` key servers, threshold `k`.
  DataOwner(BytesView seed32, int n, int k);

  /// Seals a record and pushes key shares to the servers.
  SealedRecord seal(const std::string& record_id, BytesView plaintext);

  /// Issues a signed grant for a consumer.
  AccessGrant grant(const std::string& record_id, const std::string& consumer);

  /// Revokes at every server.
  void revoke(const std::string& record_id, const std::string& consumer);

  std::vector<KeyServer>& servers() { return servers_; }
  int threshold() const { return k_; }
  const std::array<std::uint8_t, 32>& public_key() const {
    return kp_.public_key;
  }

 private:
  crypto::Ed25519KeyPair kp_;
  crypto::CtrDrbg drbg_;
  std::vector<KeyServer> servers_;
  int k_;
  std::uint64_t counter_ = 0;
};

/// Consumer-side: collect shares from servers and open the record.
/// Returns nullopt if fewer than k servers released a share or the record
/// fails authentication.
std::optional<Bytes> consume_record(const SealedRecord& record,
                                    const AccessGrant& grant,
                                    const std::string& consumer,
                                    std::vector<KeyServer>& servers,
                                    int threshold);

}  // namespace avsec::datalayer
