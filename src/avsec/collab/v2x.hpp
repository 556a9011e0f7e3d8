// V2X message security and privacy for collaborative perception
// (paper §VII-B): Collective-Perception-style messages are signed under
// short-lived *pseudonym certificates* so that receivers can authenticate
// senders without being able to track a vehicle across time — the standard
// C-ITS design (ETSI/IEEE 1609.2 style, modeled with our Ed25519).
//
// The module also contains the adversary: a passive tracker that links
// messages into trajectories purely from pseudonym reuse, quantifying the
// privacy value of pseudonym-change strategies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "avsec/collab/perception.hpp"
#include "avsec/crypto/drbg.hpp"
#include "avsec/crypto/ed25519.hpp"

namespace avsec::collab {

using core::Bytes;
using core::BytesView;

/// Short-lived pseudonym certificate: an Ed25519 key blessed by the
/// pseudonym authority, with a validity window in rounds.
struct PseudonymCert {
  std::array<std::uint8_t, 32> public_key{};
  std::uint64_t pseudonym_id = 0;  // opaque, NOT linkable to the vehicle
  std::uint64_t valid_from = 0;
  std::uint64_t valid_until = 0;
  crypto::Ed25519Signature authority_signature{};

  Bytes to_be_signed() const;
};

/// Issues pseudonym certificates; knows the real identity mapping (held
/// confidential — only revealed for misbehavior investigation).
class PseudonymAuthority {
 public:
  explicit PseudonymAuthority(BytesView seed32);

  /// Issues a pseudonym for `vehicle_id` valid [from, until].
  PseudonymCert issue(int vehicle_id, const std::array<std::uint8_t, 32>& key,
                      std::uint64_t from, std::uint64_t until);

  static bool check(const PseudonymCert& cert,
                    const std::array<std::uint8_t, 32>& authority_key,
                    std::uint64_t now);

  const std::array<std::uint8_t, 32>& public_key() const {
    return kp_.public_key;
  }

  /// Misbehavior investigation: resolves a pseudonym back to the vehicle.
  std::optional<int> resolve(std::uint64_t pseudonym_id) const;

 private:
  crypto::Ed25519KeyPair kp_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, int> registry_;  // pseudonym -> real vehicle
};

/// A signed CPM: position report + pseudonym cert + signature.
struct SignedCpm {
  Vec2 position;        // reported object position
  Vec2 sender_position; // the sender's own position (for plausibility)
  std::uint64_t round = 0;
  PseudonymCert cert;
  crypto::Ed25519Signature signature{};

  Bytes to_be_signed() const;
};

/// Per-vehicle V2X stack: holds the key, requests pseudonyms, signs CPMs
/// and rotates the pseudonym every `change_interval` rounds.
class V2xStack {
 public:
  V2xStack(int vehicle_id, BytesView seed32, PseudonymAuthority& authority,
           std::uint64_t change_interval);

  SignedCpm sign(const Vec2& object_position, const Vec2& own_position,
                 std::uint64_t round);

  std::uint64_t pseudonyms_used() const { return pseudonyms_used_; }

 private:
  void rotate(std::uint64_t round);

  int vehicle_id_;
  crypto::CtrDrbg drbg_;
  PseudonymAuthority* authority_;
  std::uint64_t change_interval_;
  crypto::Ed25519KeyPair current_key_{};
  PseudonymCert current_cert_{};
  std::uint64_t cert_round_ = 0;
  bool has_cert_ = false;
  std::uint64_t pseudonyms_used_ = 0;
};

/// Receiver-side verification.
enum class CpmVerdict : std::uint8_t {
  kValid,
  kBadCert,
  kExpiredCert,
  kBadSignature,
};
CpmVerdict verify_cpm(const SignedCpm& cpm,
                      const std::array<std::uint8_t, 32>& authority_key,
                      std::uint64_t now);

/// First-line semantic filter on authenticated CPMs: a report is only
/// plausible if the claimed object lies within the sender's own sensing
/// range. Credentialed insiders placing ghosts far from themselves are
/// caught here before fusion even starts (complements the trust defense).
bool cpm_plausible(const SignedCpm& cpm, double sensing_range_m);

/// Passive tracking adversary: links observed CPMs by pseudonym id. Its
/// success metric is the longest fraction of a vehicle's trajectory it can
/// stitch into one track.
class PseudonymTracker {
 public:
  void observe(const SignedCpm& cpm);

  /// Longest single-pseudonym streak, as a fraction of all observations
  /// (1.0 = the vehicle was trackable for its entire lifetime).
  double longest_track_fraction() const;

  std::size_t distinct_pseudonyms() const { return by_pseudonym_.size(); }

 private:
  std::map<std::uint64_t, std::size_t> by_pseudonym_;
  std::size_t total_ = 0;
};

}  // namespace avsec::collab
