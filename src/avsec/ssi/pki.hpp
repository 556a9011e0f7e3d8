// X.509-lite hierarchical PKI — the baseline Fig. 7's SSI approach is
// compared against. Single-root chains with intermediates, expiry, and
// CRLs; path validation walks issuer links up to a configured trust root.
//
// Chain semantics (path building, expiry, revocation) are faithful; the
// encoding is our canonical byte format, not ASN.1 DER (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "avsec/crypto/ed25519.hpp"

namespace avsec::ssi {

using core::Bytes;
using core::BytesView;

struct Certificate {
  std::string subject;
  std::string issuer;  // subject of the issuing CA
  std::array<std::uint8_t, 32> public_key{};
  std::uint64_t serial = 0;
  std::uint64_t not_after = 0;  // logical time, 0 = never
  bool is_ca = false;
  crypto::Ed25519Signature signature{};

  Bytes to_be_signed() const;
};

/// A certificate authority that can sign end-entity and CA certificates.
class CertAuthority {
 public:
  CertAuthority(std::string name, BytesView seed32);

  /// Self-signed root certificate.
  Certificate root_certificate(std::uint64_t not_after = 0) const;

  /// Signs a subordinate CA certificate for `child`.
  Certificate sign_ca(const CertAuthority& child, std::uint64_t serial,
                      std::uint64_t not_after = 0) const;

  /// Signs an end-entity certificate.
  Certificate sign_leaf(const std::string& subject,
                        const std::array<std::uint8_t, 32>& key,
                        std::uint64_t serial,
                        std::uint64_t not_after = 0) const;

  const std::string& name() const { return name_; }
  const std::array<std::uint8_t, 32>& public_key() const {
    return kp_.public_key;
  }

 private:
  std::string name_;
  crypto::Ed25519KeyPair kp_;
};

enum class ChainVerdict : std::uint8_t {
  kValid,
  kBadSignature,
  kUntrustedRoot,
  kExpired,
  kRevoked,
  kBrokenChain,
  kNotACa,
};

/// Validates `chain` (leaf first, root last) against a set of trusted root
/// keys and a combined CRL view. Returns kValid plus the number of
/// signature verifications performed via `sig_ops`.
ChainVerdict verify_chain(const std::vector<Certificate>& chain,
                          const std::vector<std::array<std::uint8_t, 32>>&
                              trusted_roots,
                          const std::set<std::uint64_t>& revoked_serials,
                          std::uint64_t now, int* sig_ops = nullptr);

}  // namespace avsec::ssi
