#include "avsec/ssi/vc.hpp"

namespace avsec::ssi {

namespace {

void append_str(Bytes& out, const std::string& s) {
  core::append_be(out, s.size(), 2);
  core::append(out, core::to_bytes(s));
}

}  // namespace

Bytes VerifiableCredential::to_be_signed() const {
  // Canonical serialization: fixed field order; claims sorted by key
  // (std::map iterates in key order), everything length-prefixed.
  Bytes out;
  append_str(out, id);
  append_str(out, issuer_did);
  append_str(out, subject_did);
  core::append_be(out, claims.size(), 2);
  for (const auto& [k, v] : claims) {
    append_str(out, k);
    append_str(out, v);
  }
  core::append_be(out, issued_at, 8);
  core::append_be(out, expires_at, 8);
  core::append_be(out, linked_ids.size(), 2);
  for (const auto& l : linked_ids) append_str(out, l);
  return out;
}

Issuer::Issuer(std::string name, BytesView seed32)
    : name_(std::move(name)), kp_(crypto::ed25519_keypair(seed32)),
      did_(did_for_key(kp_.public_key)) {}

bool Issuer::anchor_into(DidRegistry& registry,
                         const std::string& anchor) const {
  DidDocument doc;
  doc.did = did_;
  doc.verification_key = kp_.public_key;
  doc.controller = name_;
  return registry.register_document(doc, anchor);
}

VerifiableCredential Issuer::issue(const std::string& credential_id,
                                   const std::string& subject_did,
                                   std::map<std::string, std::string> claims,
                                   LogicalTime issued_at,
                                   LogicalTime expires_at,
                                   std::vector<std::string> linked_ids) const {
  VerifiableCredential vc;
  vc.id = credential_id;
  vc.issuer_did = did_;
  vc.subject_did = subject_did;
  vc.claims = std::move(claims);
  vc.issued_at = issued_at;
  vc.expires_at = expires_at;
  vc.linked_ids = std::move(linked_ids);
  vc.proof = crypto::ed25519_sign(kp_, vc.to_be_signed());
  return vc;
}

void Issuer::revoke(const std::string& credential_id) {
  revoked_.insert(credential_id);
}

const char* vc_verdict_name(VcVerdict v) {
  switch (v) {
    case VcVerdict::kValid: return "valid";
    case VcVerdict::kUnknownIssuer: return "unknown issuer";
    case VcVerdict::kIssuerDeactivated: return "issuer deactivated";
    case VcVerdict::kBadSignature: return "bad signature";
    case VcVerdict::kExpired: return "expired";
    case VcVerdict::kRevoked: return "revoked";
    case VcVerdict::kCompromisedKey: return "signed by compromised key";
  }
  return "?";
}

VcVerdict verify_credential(const VerifiableCredential& vc,
                            const DidRegistry& registry,
                            const std::set<std::string>& revocations,
                            LogicalTime now) {
  const auto doc = registry.resolve(vc.issuer_did);
  if (!doc) return VcVerdict::kUnknownIssuer;
  if (!doc->active) return VcVerdict::kIssuerDeactivated;

  // Try the issuer's current key first, then its rotation history: routine
  // rotations keep earlier signatures valid, compromise rotations void
  // everything the compromised key signed.
  const Bytes body = vc.to_be_signed();
  const BytesView proof(vc.proof.data(), 64);
  bool verified = false;
  if (crypto::ed25519_verify(BytesView(doc->verification_key.data(), 32),
                             body, proof)) {
    verified = true;
  } else {
    for (const auto& rec : registry.key_history(vc.issuer_did)) {
      if (rec.current) continue;
      if (crypto::ed25519_verify(BytesView(rec.key.data(), 32), body, proof)) {
        if (rec.compromised) return VcVerdict::kCompromisedKey;
        verified = true;
        break;
      }
    }
  }
  if (!verified) return VcVerdict::kBadSignature;
  if (vc.expires_at != 0 && now > vc.expires_at) return VcVerdict::kExpired;
  if (revocations.count(vc.id)) return VcVerdict::kRevoked;
  return VcVerdict::kValid;
}

Bytes VerifiablePresentation::to_be_signed() const {
  Bytes out;
  core::append_be(out, credentials.size(), 2);
  for (const auto& vc : credentials) {
    const Bytes body = vc.to_be_signed();
    core::append(out, body);
    core::append(out, BytesView(vc.proof.data(), 64));
  }
  core::append_be(out, holder_did.size(), 2);
  core::append(out, core::to_bytes(holder_did));
  core::append(out, nonce);
  return out;
}

Wallet::Wallet(std::string name, BytesView seed32)
    : name_(std::move(name)), kp_(crypto::ed25519_keypair(seed32)),
      did_(did_for_key(kp_.public_key)) {}

bool Wallet::anchor_into(DidRegistry& registry,
                         const std::string& anchor) const {
  DidDocument doc;
  doc.did = did_;
  doc.verification_key = kp_.public_key;
  doc.controller = name_;
  return registry.register_document(doc, anchor);
}

std::optional<VerifiablePresentation> Wallet::present(
    const std::vector<std::string>& credential_ids, BytesView nonce) const {
  VerifiablePresentation vp;
  for (const auto& id : credential_ids) {
    bool found = false;
    for (const auto& vc : credentials_) {
      if (vc.id == id) {
        vp.credentials.push_back(vc);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  vp.holder_did = did_;
  vp.nonce.assign(nonce.begin(), nonce.end());
  vp.holder_proof = crypto::ed25519_sign(kp_, vp.to_be_signed());
  return vp;
}

VcVerdict verify_presentation(const VerifiablePresentation& vp,
                              const DidRegistry& registry,
                              const std::set<std::string>& revocations,
                              BytesView expected_nonce, LogicalTime now) {
  if (!core::ct_equal(vp.nonce, expected_nonce)) {
    return VcVerdict::kBadSignature;
  }
  const auto holder = registry.resolve(vp.holder_did);
  if (!holder) return VcVerdict::kUnknownIssuer;
  if (!holder->active) return VcVerdict::kIssuerDeactivated;
  if (!crypto::ed25519_verify(
          BytesView(holder->verification_key.data(), 32), vp.to_be_signed(),
          BytesView(vp.holder_proof.data(), 64))) {
    return VcVerdict::kBadSignature;
  }
  for (const auto& vc : vp.credentials) {
    // Credentials in a presentation must be about the holder.
    if (vc.subject_did != vp.holder_did) return VcVerdict::kBadSignature;
    const VcVerdict v = verify_credential(vc, registry, revocations, now);
    if (v != VcVerdict::kValid) return v;
  }
  return VcVerdict::kValid;
}

}  // namespace avsec::ssi
