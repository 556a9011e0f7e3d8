#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/modes.hpp"
#include "avsec/crypto/sha2.hpp"
#include "avsec/crypto/x25519.hpp"
#include "avsec/netsim/traffic.hpp"
#include "avsec/secproto/cansec.hpp"
#include "avsec/secproto/macsec.hpp"
#include "avsec/secproto/secoc.hpp"
#include "avsec/secproto/tls_lite.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using avsec::core::Bytes;
namespace crypto = avsec::crypto;
namespace netsim = avsec::netsim;
namespace secproto = avsec::secproto;

constexpr std::int64_t kMinProbeNs = 20'000'000;
constexpr std::size_t kMinBatches = 7;
constexpr std::size_t kAsymOpsPerBatch = 4;

/// Median microseconds per op of `batch`, which performs `ops` operations.
double time_us(std::size_t ops, const std::function<void()>& batch) {
  batch();  // warm-up: key schedules, caches
  std::vector<double> per_op;
  const std::int64_t begin = now_ns();
  while (per_op.size() < kMinBatches || now_ns() - begin < kMinProbeNs) {
    const std::int64_t t0 = now_ns();
    batch();
    per_op.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                     static_cast<double>(ops));
  }
  return median_of(per_op);
}

}  // namespace

ProbeResults run_probes(const std::vector<std::size_t>& payloads) {
  ProbeResults r;
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    msgs.push_back(netsim::test_payload(i + 1, std::max<std::size_t>(payloads[i], 1)));
  }
  const std::size_t n = msgs.size();
  const Bytes key(16, 0x2B);
  const Bytes iv(12, 0x01);
  const Bytes aad(8, 0xA5);
  std::uint64_t sink = 0;
  const auto add = [&r](const char* name, double us) {
    r.us_per_op.emplace_back(name, us);
  };

  // --- crypto primitives -------------------------------------------------
  const crypto::AesGcm gcm(key);
  std::vector<Bytes> cts(n), tags(n);
  add("crypto.gcm_seal_us", time_us(n, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          cts[i] = gcm.seal(iv, aad, msgs[i], tags[i]);
        }
      }));
  add("crypto.gcm_open_us", time_us(n, [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const auto pt = gcm.open(iv, aad, cts[i], tags[i]);
          if (!pt || *pt != msgs[i]) r.ok = false;
        }
      }));
  const crypto::AesCmac cmac(key);
  add("crypto.cmac_us", time_us(n, [&] {
        for (const Bytes& m : msgs) sink += cmac.mac(m)[0];
      }));
  crypto::X25519Key scalar{};
  scalar.fill(0x42);
  scalar = crypto::x25519_clamp(scalar);
  const crypto::X25519Key point = crypto::x25519_base(scalar);
  add("crypto.x25519_us", time_us(kAsymOpsPerBatch, [&] {
        for (std::size_t i = 0; i < kAsymOpsPerBatch; ++i) {
          sink += crypto::x25519(scalar, point)[0];
        }
      }));
  const crypto::Ed25519KeyPair kp = crypto::ed25519_keypair(Bytes(32, 0x51));
  const Bytes& sign_msg = msgs.front();
  crypto::Ed25519Signature sig{};
  add("crypto.ed25519_sign_us", time_us(kAsymOpsPerBatch, [&] {
        for (std::size_t i = 0; i < kAsymOpsPerBatch; ++i) {
          sig = crypto::ed25519_sign(kp, sign_msg);
        }
      }));
  add("crypto.ed25519_verify_us", time_us(kAsymOpsPerBatch, [&] {
        for (std::size_t i = 0; i < kAsymOpsPerBatch; ++i) {
          if (!crypto::ed25519_verify(kp.public_key, sign_msg, sig)) r.ok = false;
        }
      }));
  add("crypto.sha256_us", time_us(n, [&] {
        for (const Bytes& m : msgs) sink += crypto::Sha256::hash(m)[0];
      }));

  // --- secproto round trips (one protect + verify each) --------------------
  const secproto::TlsCa ca(Bytes(32, 0xCA));
  const Bytes server_seed(32, 0x51);
  const secproto::TlsCert cert =
      ca.issue("gateway.vehicle.local",
               crypto::ed25519_keypair(server_seed).public_key);
  std::uint64_t hs_seed = 1;
  add("secproto.tls.handshake_us", time_us(1, [&] {
        secproto::TlsClient client(hs_seed, ca.public_key());
        secproto::TlsServer server(hs_seed + 1, cert, server_seed);
        hs_seed += 2;
        auto resp = server.respond(client.hello());
        if (!resp || !client.finish(resp->hello)) r.ok = false;
      }));
  secproto::TlsRecordLayer tls_tx(key, iv), tls_rx(key, iv);
  add("secproto.tls.record_rt_us", time_us(n, [&] {
        for (const Bytes& m : msgs) {
          if (!tls_rx.open(tls_tx.seal(m))) r.ok = false;
        }
      }));
  secproto::CansecAssociation can_tx(key), can_rx(key);
  add("secproto.cansec.rt_us", time_us(n, [&] {
        for (const Bytes& m : msgs) {
          netsim::CanFrame f;
          f.id = 0x123;
          f.protocol = netsim::CanProtocol::kXl;
          f.payload = m;
          if (!can_rx.unprotect(can_tx.protect(f))) r.ok = false;
        }
      }));
  secproto::SecOcSender secoc_tx(key);
  secproto::SecOcReceiver secoc_rx(key);
  add("secproto.secoc.rt_us", time_us(n, [&] {
        for (const Bytes& m : msgs) {
          if (!secoc_rx.verify(1, secoc_tx.protect(1, m))) r.ok = false;
        }
      }));
  secproto::MacsecChannel mac_tx(key, 0xBEEF), mac_rx(key, 0xBEEF);
  add("secproto.macsec.rt_us", time_us(n, [&] {
        for (const Bytes& m : msgs) {
          netsim::EthFrame f;
          f.dst = netsim::mac_from_index(1);
          f.payload = m;
          if (!mac_rx.unprotect(mac_tx.protect(f))) r.ok = false;
        }
      }));
  // Keeps the MAC/hash/DH results observable so none is optimized away.
  if (sink == 0x5EED5EED5EED5EEDull) r.ok = false;
  return r;
}

}  // namespace perfbench
