#include "avsec/secproto/session.hpp"

#include <algorithm>
#include <cmath>

namespace avsec::secproto {

const char* session_event_kind_name(SessionEventKind k) {
  switch (k) {
    case SessionEventKind::kHelloSent: return "hello-sent";
    case SessionEventKind::kRetransmit: return "retransmit";
    case SessionEventKind::kEstablished: return "established";
    case SessionEventKind::kGiveUp: return "give-up";
    case SessionEventKind::kReconnectScheduled: return "reconnect-scheduled";
    case SessionEventKind::kRekeyStarted: return "rekey-started";
    case SessionEventKind::kClosed: return "closed";
  }
  return "?";
}

// --- TlsResponder ---

TlsResponder::TlsResponder(core::Scheduler& sim,
                           netsim::FlakyChannel& channel, std::uint64_t seed,
                           const TlsCa& ca, const std::string& subject)
    : sim_(sim), channel_(channel), seed_rng_(seed) {
  identity_seed_.resize(32);
  seed_rng_.fill_bytes(identity_seed_);
  const crypto::Ed25519KeyPair identity =
      crypto::ed25519_keypair(identity_seed_);
  cert_ = ca.issue(subject, identity.public_key);
  channel_.bind(netsim::FlakyChannel::End::kB,
                [this](const core::Bytes& data, core::SimTime) {
                  on_datagram(data);
                });
}

void TlsResponder::on_datagram(const core::Bytes& data) {
  const auto hello = TlsClientHello::parse(data);
  if (!hello) return;  // corrupted or not a hello: drop silently
  ++hellos_seen_;
  const auto cached = response_cache_.find(data);
  if (cached != response_cache_.end()) {
    // Retransmitted hello: replay the byte-identical ServerHello.
    channel_.send(netsim::FlakyChannel::End::kB, cached->second);
    return;
  }
  TlsServer server(seed_rng_.next(), cert_, identity_seed_);
  auto response = server.respond(*hello);
  if (!response) return;
  ++handshakes_;
  session_ = std::make_unique<TlsSession>(std::move(response->session));
  core::Bytes wire = response->hello.serialize();
  response_cache_[data] = wire;
  channel_.send(netsim::FlakyChannel::End::kB, std::move(wire));
}

// --- RobustTlsSession ---

RobustTlsSession::RobustTlsSession(core::Scheduler& sim,
                                   netsim::FlakyChannel& channel,
                                   std::uint64_t seed,
                                   std::array<std::uint8_t, 32> trusted_ca_key,
                                   RobustSessionConfig config)
    : sim_(sim),
      channel_(channel),
      rng_(seed),
      ca_key_(trusted_ca_key),
      config_(config) {
  channel_.bind(netsim::FlakyChannel::End::kA,
                [this](const core::Bytes& data, core::SimTime) {
                  on_datagram(data);
                });
  AVSEC_OBS_REGISTER_TRACK(obs_track_, "tls-session");
}

void RobustTlsSession::record(SessionEventKind kind, core::SimTime timeout) {
  events_.push_back(SessionEvent{sim_.now(), kind, attempt_, timeout});
  AVSEC_TRACE_INSTANT(obs::Category::kSecproto, session_event_kind_name(kind),
                      obs_track_, sim_.now(), attempt_, timeout);
  AVSEC_METRIC_INC("secproto.session_events", 1);
}

void RobustTlsSession::connect() {
  if (state_ == SessionState::kHandshaking ||
      state_ == SessionState::kClosed) {
    return;
  }
  start_handshake();
}

void RobustTlsSession::rekey() {
  if (state_ != SessionState::kEstablished) return;
  record(SessionEventKind::kRekeyStarted);
  start_handshake();
}

void RobustTlsSession::close() {
  sim_.cancel(timer_);
  timer_ = core::EventHandle{};
  if (state_ == SessionState::kHandshaking) {
    AVSEC_TRACE_END(obs::Category::kSecproto, "handshake", obs_track_,
                    sim_.now());
  }
  session_.reset();
  state_ = SessionState::kClosed;
  record(SessionEventKind::kClosed);
}

void RobustTlsSession::start_handshake() {
  AVSEC_TRACE_BEGIN(obs::Category::kSecproto, "handshake", obs_track_,
                    sim_.now(), reconnects_);
  state_ = SessionState::kHandshaking;
  client_ = std::make_unique<TlsClient>(rng_.next(), ca_key_);
  hello_bytes_ = client_->hello().serialize();
  attempt_ = 0;
  send_hello(/*retransmit=*/false);
}

void RobustTlsSession::send_hello(bool retransmit) {
  const core::SimTime timeout = config_.retry.timeout_for(attempt_, &rng_);
  record(retransmit ? SessionEventKind::kRetransmit
                    : SessionEventKind::kHelloSent,
         timeout);
  channel_.send(netsim::FlakyChannel::End::kA, hello_bytes_);
  timer_ = sim_.schedule_in(timeout, [this] { on_timeout(); });
}

void RobustTlsSession::on_timeout() {
  if (state_ != SessionState::kHandshaking) return;
  if (attempt_ < config_.retry.max_retries) {
    ++attempt_;
    send_hello(/*retransmit=*/true);
    return;
  }
  // Bounded retries exhausted: tear the session down.
  AVSEC_TRACE_END(obs::Category::kSecproto, "handshake", obs_track_,
                  sim_.now());
  record(SessionEventKind::kGiveUp);
  client_.reset();
  session_.reset();
  state_ = SessionState::kFailed;
  if (config_.auto_reconnect &&
      (config_.max_reconnects == 0 ||
       reconnects_ < config_.max_reconnects)) {
    ++reconnects_;
    record(SessionEventKind::kReconnectScheduled);
    sim_.schedule_in(config_.reconnect_delay, [this] {
      if (state_ == SessionState::kFailed) start_handshake();
    });
  }
}

void RobustTlsSession::on_datagram(const core::Bytes& data) {
  if (state_ != SessionState::kHandshaking || !client_) {
    return;  // duplicate ServerHello after completion, or stale traffic
  }
  const auto sh = TlsServerHello::parse(data);
  if (!sh) return;  // corrupted: let the retransmission timer handle it
  auto session = client_->finish(*sh);
  if (!session) return;  // bad signature/cert: ignore, keep retrying
  sim_.cancel(timer_);
  timer_ = core::EventHandle{};
  session_ = std::make_unique<TlsSession>(std::move(*session));
  client_.reset();
  state_ = SessionState::kEstablished;
  ++handshakes_;
  AVSEC_TRACE_END(obs::Category::kSecproto, "handshake", obs_track_,
                  sim_.now());
  AVSEC_METRIC_INC("secproto.handshakes", 1);
  record(SessionEventKind::kEstablished);
}

}  // namespace avsec::secproto
