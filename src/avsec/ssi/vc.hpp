// Verifiable credentials and presentations over the DID registry
// (paper §IV: "asynchronous cryptography with different trust anchors
// stored in an immutable, publicly available storage").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "avsec/ssi/did.hpp"

namespace avsec::ssi {

/// Logical time (abstract "days") used for issuance/expiry; the simulation
/// passes time explicitly so runs stay deterministic.
using LogicalTime = std::uint64_t;

struct VerifiableCredential {
  std::string id;           // unique credential id
  std::string issuer_did;
  std::string subject_did;
  std::map<std::string, std::string> claims;
  LogicalTime issued_at = 0;
  LogicalTime expires_at = 0;  // 0 = never
  /// Ids of credentials this one references (linked signed documents,
  /// paper §IV-B: "signed documents need to be linked").
  std::vector<std::string> linked_ids;
  crypto::Ed25519Signature proof{};

  Bytes to_be_signed() const;
};

/// Issues credentials under an identity whose DID is anchored in a
/// registry.
class Issuer {
 public:
  Issuer(std::string name, BytesView seed32);

  /// Registers this issuer's DID via `anchor`.
  bool anchor_into(DidRegistry& registry, const std::string& anchor) const;

  VerifiableCredential issue(const std::string& credential_id,
                             const std::string& subject_did,
                             std::map<std::string, std::string> claims,
                             LogicalTime issued_at, LogicalTime expires_at,
                             std::vector<std::string> linked_ids = {}) const;

  /// Revokes a credential id (status list maintained by the issuer).
  void revoke(const std::string& credential_id);
  const std::set<std::string>& revocation_list() const { return revoked_; }

  const std::string& did() const { return did_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  crypto::Ed25519KeyPair kp_;
  std::string did_;
  std::set<std::string> revoked_;
};

enum class VcVerdict : std::uint8_t {
  kValid,
  kUnknownIssuer,
  kIssuerDeactivated,
  kBadSignature,
  kExpired,
  kRevoked,
  /// The signature is valid under a key the issuer rotated out *because it
  /// was compromised* — everything that key signed is untrustworthy.
  kCompromisedKey,
};

const char* vc_verdict_name(VcVerdict v);

/// Verifies a credential against a registry snapshot and a revocation
/// view. `revocations` may be stale in offline scenarios — the caller
/// decides how stale is acceptable.
VcVerdict verify_credential(const VerifiableCredential& vc,
                            const DidRegistry& registry,
                            const std::set<std::string>& revocations,
                            LogicalTime now);

/// A holder-signed presentation of one or more credentials bound to a
/// verifier-chosen nonce (prevents replaying someone else's presentation).
struct VerifiablePresentation {
  std::vector<VerifiableCredential> credentials;
  std::string holder_did;
  Bytes nonce;
  crypto::Ed25519Signature holder_proof{};

  Bytes to_be_signed() const;
};

/// Holder-side wallet: key material + credentials + offline registry
/// snapshot.
class Wallet {
 public:
  Wallet(std::string name, BytesView seed32);

  const std::string& did() const { return did_; }
  const std::array<std::uint8_t, 32>& public_key() const {
    return kp_.public_key;
  }

  bool anchor_into(DidRegistry& registry, const std::string& anchor) const;

  void store(VerifiableCredential vc) { credentials_.push_back(std::move(vc)); }
  const std::vector<VerifiableCredential>& credentials() const {
    return credentials_;
  }

  /// Builds a presentation of the credentials whose ids are listed.
  std::optional<VerifiablePresentation> present(
      const std::vector<std::string>& credential_ids, BytesView nonce) const;

 private:
  std::string name_;
  crypto::Ed25519KeyPair kp_;
  std::string did_;
  std::vector<VerifiableCredential> credentials_;
};

/// Full presentation check: holder proof + every contained credential.
VcVerdict verify_presentation(const VerifiablePresentation& vp,
                              const DidRegistry& registry,
                              const std::set<std::string>& revocations,
                              BytesView expected_nonce, LogicalTime now);

}  // namespace avsec::ssi
