#include "avsec/ssi/pki.hpp"

namespace avsec::ssi {

namespace {

void append_str(Bytes& out, const std::string& s) {
  core::append_be(out, s.size(), 2);
  core::append(out, core::to_bytes(s));
}

}  // namespace

Bytes Certificate::to_be_signed() const {
  Bytes out;
  append_str(out, subject);
  append_str(out, issuer);
  core::append(out, BytesView(public_key.data(), 32));
  core::append_be(out, serial, 8);
  core::append_be(out, not_after, 8);
  out.push_back(is_ca ? 1 : 0);
  return out;
}

CertAuthority::CertAuthority(std::string name, BytesView seed32)
    : name_(std::move(name)), kp_(crypto::ed25519_keypair(seed32)) {}

Certificate CertAuthority::root_certificate(std::uint64_t not_after) const {
  Certificate cert;
  cert.subject = name_;
  cert.issuer = name_;
  cert.public_key = kp_.public_key;
  cert.serial = 1;
  cert.not_after = not_after;
  cert.is_ca = true;
  cert.signature = crypto::ed25519_sign(kp_, cert.to_be_signed());
  return cert;
}

Certificate CertAuthority::sign_ca(const CertAuthority& child,
                                   std::uint64_t serial,
                                   std::uint64_t not_after) const {
  Certificate cert;
  cert.subject = child.name_;
  cert.issuer = name_;
  cert.public_key = child.kp_.public_key;
  cert.serial = serial;
  cert.not_after = not_after;
  cert.is_ca = true;
  cert.signature = crypto::ed25519_sign(kp_, cert.to_be_signed());
  return cert;
}

Certificate CertAuthority::sign_leaf(const std::string& subject,
                                     const std::array<std::uint8_t, 32>& key,
                                     std::uint64_t serial,
                                     std::uint64_t not_after) const {
  Certificate cert;
  cert.subject = subject;
  cert.issuer = name_;
  cert.public_key = key;
  cert.serial = serial;
  cert.not_after = not_after;
  cert.is_ca = false;
  cert.signature = crypto::ed25519_sign(kp_, cert.to_be_signed());
  return cert;
}

ChainVerdict verify_chain(
    const std::vector<Certificate>& chain,
    const std::vector<std::array<std::uint8_t, 32>>& trusted_roots,
    const std::set<std::uint64_t>& revoked_serials, std::uint64_t now,
    int* sig_ops) {
  int ops = 0;
  if (sig_ops) *sig_ops = 0;
  if (chain.empty()) return ChainVerdict::kBrokenChain;

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = chain[i];
    if (cert.not_after != 0 && now > cert.not_after) {
      return ChainVerdict::kExpired;
    }
    if (revoked_serials.count(cert.serial)) return ChainVerdict::kRevoked;
    if (i > 0 && !chain[i].is_ca) return ChainVerdict::kNotACa;

    const bool is_last = (i + 1 == chain.size());
    const std::array<std::uint8_t, 32>& signer_key =
        is_last ? cert.public_key : chain[i + 1].public_key;
    if (!is_last && cert.issuer != chain[i + 1].subject) {
      return ChainVerdict::kBrokenChain;
    }
    ++ops;
    if (!crypto::ed25519_verify(BytesView(signer_key.data(), 32),
                                cert.to_be_signed(),
                                BytesView(cert.signature.data(), 64))) {
      if (sig_ops) *sig_ops = ops;
      return ChainVerdict::kBadSignature;
    }
  }
  if (sig_ops) *sig_ops = ops;

  // The chain's last certificate must be one of the trusted roots.
  const auto& root = chain.back();
  for (const auto& trusted : trusted_roots) {
    if (trusted == root.public_key) return ChainVerdict::kValid;
  }
  return ChainVerdict::kUntrustedRoot;
}

}  // namespace avsec::ssi
