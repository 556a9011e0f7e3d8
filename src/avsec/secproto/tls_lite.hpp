// TLS-lite: the architectural essence of (D)TLS 1.3 for the Table I
// protocol comparison — an X25519 ECDHE handshake authenticated by an
// Ed25519 certificate, HKDF key schedule, and AES-GCM records with
// explicit sequence numbers.
//
// This is NOT an RFC 8446 implementation: alerts, resumption, cipher
// negotiation and the full state machine are out of scope (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "avsec/crypto/drbg.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/hmac.hpp"
#include "avsec/crypto/modes.hpp"
#include "avsec/crypto/x25519.hpp"

namespace avsec::secproto {

using core::Bytes;
using core::BytesView;

/// Minimal identity certificate: subject + Ed25519 key, signed by a CA.
struct TlsCert {
  std::string subject;
  std::array<std::uint8_t, 32> public_key{};
  crypto::Ed25519Signature ca_signature{};

  Bytes to_be_signed() const;
  Bytes serialize() const;
  static std::optional<TlsCert> parse(BytesView data);
};

/// Issues certificates from a CA seed.
class TlsCa {
 public:
  explicit TlsCa(BytesView seed32);

  TlsCert issue(const std::string& subject,
                const std::array<std::uint8_t, 32>& subject_key) const;
  const std::array<std::uint8_t, 32>& public_key() const {
    return kp_.public_key;
  }
  static bool check(const TlsCert& cert,
                    const std::array<std::uint8_t, 32>& ca_key);

 private:
  crypto::Ed25519KeyPair kp_;
};

/// Wire messages of the handshake.
struct TlsClientHello {
  crypto::X25519Key client_share{};
  Bytes client_nonce;  // 16B
  Bytes serialize() const;
  static std::optional<TlsClientHello> parse(BytesView data);
};

struct TlsServerHello {
  crypto::X25519Key server_share{};
  Bytes server_nonce;  // 16B
  TlsCert cert;
  crypto::Ed25519Signature transcript_signature{};
  Bytes serialize() const;
  static std::optional<TlsServerHello> parse(BytesView data);
};

/// Established record protection (one direction).
class TlsRecordLayer {
 public:
  TlsRecordLayer(BytesView key16, BytesView iv12);

  Bytes seal(BytesView plaintext);
  std::optional<Bytes> open(BytesView record);

  static constexpr std::size_t kOverhead = 8 + 16;  // seq + GCM tag

 private:
  Bytes nonce_for(std::uint64_t seq) const;
  crypto::AesGcm gcm_;
  Bytes iv_;
  std::uint64_t seq_tx_ = 0;
  std::uint64_t seq_rx_expect_ = 0;
};

/// Result of a completed handshake: independent record layers per
/// direction, as TLS 1.3 derives.
struct TlsSession {
  std::unique_ptr<TlsRecordLayer> client_to_server;
  std::unique_ptr<TlsRecordLayer> server_to_client;
};

/// Client side: builds the hello, then consumes the server hello.
class TlsClient {
 public:
  TlsClient(std::uint64_t seed,
            std::array<std::uint8_t, 32> trusted_ca_key);

  TlsClientHello hello();

  /// Verifies certificate + transcript signature and derives keys.
  std::optional<TlsSession> finish(const TlsServerHello& sh);

 private:
  crypto::CtrDrbg drbg_;
  std::array<std::uint8_t, 32> ca_key_;
  crypto::X25519Key priv_{};
  Bytes hello_bytes_;
};

/// Server side: consumes a client hello, emits a server hello + session.
class TlsServer {
 public:
  TlsServer(std::uint64_t seed, TlsCert cert, BytesView ed25519_seed);

  struct Response {
    TlsServerHello hello;
    TlsSession session;
  };
  std::optional<Response> respond(const TlsClientHello& ch);

 private:
  crypto::CtrDrbg drbg_;
  TlsCert cert_;
  crypto::Ed25519KeyPair identity_;
};

/// Shared key schedule (exposed for tests): derives the four record keys
/// from the ECDHE secret and both nonces.
struct TlsKeys {
  Bytes c2s_key, c2s_iv, s2c_key, s2c_iv;
};
TlsKeys tls_derive_keys(BytesView shared_secret, BytesView client_nonce,
                        BytesView server_nonce);

}  // namespace avsec::secproto
