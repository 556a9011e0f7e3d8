// Session robustness for the key-agreement protocols: retransmission with
// exponential backoff + jitter and bounded retries, driven by the
// simulation scheduler over an unreliable channel.
//
// The TLS-lite handshake (tls_lite.hpp) is a pure request/response state
// machine with no notion of loss; this layer runs it over a
// netsim::FlakyChannel the way DTLS runs over UDP: the ClientHello is
// retransmitted on a backoff schedule until the ServerHello arrives, and
// after `max_retries` unanswered retransmissions the session tears down
// and (optionally) schedules a fresh re-establishment — new nonces, new
// shares — after a cool-down. Rekeying reuses the same machinery: a rekey
// is a fresh handshake on the live channel, replacing the record layers
// only once the new handshake completes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "avsec/core/retry.hpp"
#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/netsim/flaky.hpp"
#include "avsec/obs/trace.hpp"
#include "avsec/secproto/tls_lite.hpp"

namespace avsec::secproto {

enum class SessionState : std::uint8_t {
  kIdle,         // never connected
  kHandshaking,  // hello in flight (initial or rekey)
  kEstablished,  // record layers live
  kFailed,       // gave up; may still auto-reconnect
  kClosed,       // torn down by the application
};

enum class SessionEventKind : std::uint8_t {
  kHelloSent,
  kRetransmit,
  kEstablished,
  kGiveUp,
  kReconnectScheduled,
  kRekeyStarted,
  kClosed,
};

const char* session_event_kind_name(SessionEventKind k);

/// Structured trace of the session lifecycle (asserted by tests, printed
/// by the fault-campaign example).
struct SessionEvent {
  core::SimTime time = 0;
  SessionEventKind kind{};
  int attempt = 0;            // send attempt index within the handshake
  core::SimTime timeout = 0;  // timeout armed after this send (if any)
};

/// Server side of the robust session: answers ClientHellos received on end
/// B of the channel. Responses are cached per distinct hello so that a
/// retransmitted ClientHello yields the byte-identical ServerHello (the
/// client may complete against either copy).
class TlsResponder {
 public:
  TlsResponder(core::Scheduler& sim, netsim::FlakyChannel& channel,
               std::uint64_t seed, const TlsCa& ca,
               const std::string& subject);

  std::uint64_t hellos_seen() const { return hellos_seen_; }
  std::uint64_t handshakes_completed() const { return handshakes_; }
  TlsSession* latest_session() { return session_.get(); }

 private:
  void on_datagram(const core::Bytes& data);

  core::Scheduler& sim_;
  netsim::FlakyChannel& channel_;
  core::Rng seed_rng_;
  TlsCert cert_;
  core::Bytes identity_seed_;
  std::map<core::Bytes, core::Bytes> response_cache_;
  std::unique_ptr<TlsSession> session_;
  std::uint64_t hellos_seen_ = 0;
  std::uint64_t handshakes_ = 0;
};

struct RobustSessionConfig {
  /// Exponential backoff with bounded retries, shared by handshake and
  /// rekey (core/retry.hpp — the same schedule the campaign supervision
  /// layer uses for wall-clock retry pacing).
  core::RetryPolicy retry;
  /// After a give-up, schedule a fresh handshake attempt automatically.
  bool auto_reconnect = true;
  core::SimTime reconnect_delay = core::milliseconds(50);
  /// Bound on automatic re-establishment attempts (0 = unbounded).
  int max_reconnects = 8;
};

/// Client side: drives the TLS-lite handshake over end A of the channel
/// with retransmission, backoff, bounded retries, teardown and
/// re-establishment.
class RobustTlsSession {
 public:
  RobustTlsSession(core::Scheduler& sim, netsim::FlakyChannel& channel,
                   std::uint64_t seed,
                   std::array<std::uint8_t, 32> trusted_ca_key,
                   RobustSessionConfig config = {});

  /// Starts (or restarts) the handshake. No-op while one is in flight.
  void connect();

  /// Tears down the record layers and runs a fresh handshake on the live
  /// channel. Requires an established session.
  void rekey();

  /// Application-initiated teardown; cancels timers and reconnects.
  void close();

  SessionState state() const { return state_; }
  bool established() const { return state_ == SessionState::kEstablished; }
  TlsSession* session() { return session_.get(); }

  /// Send attempts (initial + retransmits) of the current/last handshake.
  int attempts() const { return attempt_ + 1; }
  int handshakes_completed() const { return handshakes_; }
  int reconnects() const { return reconnects_; }
  const std::vector<SessionEvent>& events() const { return events_; }

 private:
  void start_handshake();
  void send_hello(bool retransmit);
  void on_timeout();
  void on_datagram(const core::Bytes& data);
  void record(SessionEventKind kind, core::SimTime timeout = 0);

  core::Scheduler& sim_;
  netsim::FlakyChannel& channel_;
  core::Rng rng_;
  std::array<std::uint8_t, 32> ca_key_;
  RobustSessionConfig config_;
  obs::TrackId obs_track_ = 0;  // virtual trace track for this session

  SessionState state_ = SessionState::kIdle;
  std::unique_ptr<TlsClient> client_;
  core::Bytes hello_bytes_;
  std::unique_ptr<TlsSession> session_;
  core::EventHandle timer_;
  int attempt_ = 0;
  int handshakes_ = 0;
  int reconnects_ = 0;
  std::vector<SessionEvent> events_;
};

}  // namespace avsec::secproto
