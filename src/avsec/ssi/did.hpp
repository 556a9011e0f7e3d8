// Self-sovereign identity substrate (paper §IV): decentralized identifiers
// with an immutable, publicly readable registry.
//
// - A DID ("did:sim:<hex>") names a subject and binds an Ed25519 key.
// - The DidRegistry is a hash-chained append-only log: every accepted
//   operation (register / rotate / deactivate) becomes a block whose hash
//   covers its predecessor, so any later tampering is detectable. Multiple
//   independent *trust anchors* can register documents — this is the
//   property that distinguishes SSI from single-root PKI in Fig. 7.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "avsec/crypto/ed25519.hpp"

namespace avsec::ssi {

using core::Bytes;
using core::BytesView;

/// DID document: identifier + current verification key + metadata.
struct DidDocument {
  std::string did;                                // "did:sim:<hex>"
  std::array<std::uint8_t, 32> verification_key{};
  std::string controller;     // anchoring organization
  bool active = true;

  Bytes canonical() const;
};

/// Derives the DID string for a public key.
std::string did_for_key(const std::array<std::uint8_t, 32>& key);

/// Append-only, hash-chained public registry with multiple trust anchors.
class DidRegistry {
 public:
  enum class OpType : std::uint8_t { kRegister, kRotate, kDeactivate };

  struct Block {
    std::uint64_t index = 0;
    OpType op = OpType::kRegister;
    DidDocument doc;
    std::string anchor;         // which trust anchor admitted the op
    bool compromise = false;    // rotation/deactivation due to key compromise
    Bytes prev_hash;            // hash of the previous block
    Bytes hash;                 // hash over all of the above
  };

  /// Adds a trust anchor allowed to admit operations.
  void add_anchor(const std::string& name);

  /// Registers a new DID document via `anchor`; fails if the DID exists,
  /// the anchor is unknown, or the document is inconsistent.
  bool register_document(const DidDocument& doc, const std::string& anchor);

  /// Rotates the verification key of an existing active DID. A *routine*
  /// rotation (compromise=false) leaves signatures made under earlier keys
  /// verifiable via key_history(); a *compromise* rotation marks the old
  /// key untrustworthy, invalidating everything it ever signed.
  bool rotate_key(const std::string& did,
                  const std::array<std::uint8_t, 32>& new_key,
                  const std::string& anchor, bool compromise = false);

  /// Every key this DID has held, oldest first.
  struct KeyRecord {
    std::array<std::uint8_t, 32> key{};
    bool compromised = false;  // rotated out because it was compromised
    bool current = false;
  };
  std::vector<KeyRecord> key_history(const std::string& did) const;

  /// Deactivates a DID (e.g., decommissioned ECU).
  bool deactivate(const std::string& did, const std::string& anchor);

  /// Resolves to the *current* document; nullopt if unknown or inactive
  /// documents are still returned with active=false.
  std::optional<DidDocument> resolve(const std::string& did) const;

  /// Verifies the whole hash chain; false if any block was tampered with.
  bool audit() const;

  std::size_t size() const { return chain_.size(); }
  const std::vector<Block>& chain() const { return chain_; }

  /// A verifier-side snapshot for offline resolution (paper §IV-C points
  /// out SSI's offline support): copy of the registry state at some time.
  DidRegistry snapshot() const { return *this; }

 private:
  void append(OpType op, const DidDocument& doc, const std::string& anchor,
              bool compromise = false);
  bool has_anchor(const std::string& name) const;

  std::vector<Block> chain_;
  std::map<std::string, std::size_t> latest_;  // did -> chain index
  std::vector<std::string> anchors_;
};

}  // namespace avsec::ssi
