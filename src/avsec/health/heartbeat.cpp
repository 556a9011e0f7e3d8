#include "avsec/health/heartbeat.hpp"

#include <stdexcept>

#include "avsec/core/bytes.hpp"

namespace avsec::health {

Watchdog::Watchdog(core::Scheduler& sim, core::SimTime deadline,
                   ExpiredFn on_expired)
    : sim_(sim), deadline_(deadline), on_expired_(std::move(on_expired)) {}

void Watchdog::arm() {
  if (armed_) sim_.cancel(timer_);
  armed_ = true;
  timer_ = sim_.schedule_in(deadline_, [this] {
    armed_ = false;
    ++expirations_;
    if (on_expired_) on_expired_(sim_.now());
  });
}

void Watchdog::kick() {
  if (!armed_) return;
  sim_.cancel(timer_);
  timer_ = sim_.schedule_in(deadline_, [this] {
    armed_ = false;
    ++expirations_;
    if (on_expired_) on_expired_(sim_.now());
  });
}

void Watchdog::disarm() {
  if (!armed_) return;
  sim_.cancel(timer_);
  armed_ = false;
}

ChallengeResponder::ChallengeResponder(netsim::FlakyChannel& channel)
    : channel_(channel) {
  channel_.bind(netsim::FlakyChannel::End::kB,
                [this](const core::Bytes& data, core::SimTime) {
                  if (!online_) return;
                  ++answered_;
                  channel_.send(netsim::FlakyChannel::End::kB, data);
                });
}

HeartbeatMonitor::HeartbeatMonitor(core::Scheduler& sim,
                                   HeartbeatConfig config)
    : sim_(sim), config_(config) {}

void HeartbeatMonitor::register_source(const std::string& name) {
  register_source(name, config_.deadline, config_.miss_budget);
}

void HeartbeatMonitor::register_source(const std::string& name,
                                       core::SimTime deadline,
                                       int miss_budget) {
  Source s;
  s.deadline = deadline;
  s.miss_budget = miss_budget;
  s.last_beat = sim_.now();
  sources_[name] = std::move(s);
}

void HeartbeatMonitor::attach_probe(const std::string& name,
                                    netsim::FlakyChannel& channel,
                                    std::uint64_t seed) {
  Source& s = at(name);
  s.probe = &channel;
  s.next_nonce = seed * 0x9E3779B97F4A7C15ULL + 1;
  channel.bind(netsim::FlakyChannel::End::kA,
               [this, name](const core::Bytes& data, core::SimTime) {
                 auto it = sources_.find(name);
                 if (it == sources_.end()) return;
                 Source& src = it->second;
                 if (!src.probe_outstanding || data.size() != 8) return;
                 if (core::read_be(data, 0, 8) != src.outstanding_nonce) {
                   return;
                 }
                 src.probe_outstanding = false;
                 emit(HeartbeatEventKind::kProbeAnswered, name, src.misses);
                 heartbeat(name);
               });
}

void HeartbeatMonitor::heartbeat(const std::string& name) {
  Source& s = at(name);
  s.last_beat = sim_.now();
  s.misses = 0;
  s.probe_outstanding = false;
  if (s.state == SourceState::kDown) {
    s.state = SourceState::kAlive;
    emit(HeartbeatEventKind::kRecovered, name, 0);
    if (on_recovered_) on_recovered_(name, sim_.now());
  } else {
    s.state = SourceState::kAlive;
  }
}

void HeartbeatMonitor::start() {
  if (running_) return;
  running_ = true;
  tick_ = sim_.schedule_in(config_.check_period, [this] { check_tick(); });
}

void HeartbeatMonitor::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(tick_);
}

void HeartbeatMonitor::check_tick() {
  for (auto& [name, s] : sources_) {
    if (sim_.now() - s.last_beat <= s.deadline) continue;
    ++s.misses;
    emit(HeartbeatEventKind::kMiss, name, s.misses);
    if (s.state == SourceState::kAlive) s.state = SourceState::kSuspect;
    if (s.probe != nullptr && !s.probe_outstanding &&
        s.state == SourceState::kSuspect) {
      // Active challenge: give a silent-but-alive node one chance to prove
      // itself before the remaining budget runs out.
      s.outstanding_nonce = s.next_nonce;
      s.next_nonce = s.next_nonce * 6364136223846793005ULL + 1442695040888963407ULL;
      s.probe_outstanding = true;
      core::Bytes challenge;
      core::append_be(challenge, s.outstanding_nonce, 8);
      s.probe->send(netsim::FlakyChannel::End::kA, std::move(challenge));
      emit(HeartbeatEventKind::kProbeSent, name, s.misses);
    }
    if (s.misses >= s.miss_budget && s.state != SourceState::kDown) {
      s.state = SourceState::kDown;
      emit(HeartbeatEventKind::kDown, name, s.misses);
      if (on_down_) on_down_(name, sim_.now());
    }
  }
  if (running_) {
    tick_ = sim_.schedule_in(config_.check_period, [this] { check_tick(); });
  }
}

void HeartbeatMonitor::emit(HeartbeatEventKind kind, const std::string& source,
                            int misses) {
  events_.push_back(HeartbeatEvent{sim_.now(), kind, source, misses});
}

HeartbeatMonitor::Source& HeartbeatMonitor::at(const std::string& name) {
  auto it = sources_.find(name);
  if (it == sources_.end()) {
    throw std::out_of_range("unknown heartbeat source: " + name);
  }
  return it->second;
}

const HeartbeatMonitor::Source& HeartbeatMonitor::at(
    const std::string& name) const {
  auto it = sources_.find(name);
  if (it == sources_.end()) {
    throw std::out_of_range("unknown heartbeat source: " + name);
  }
  return it->second;
}

SourceState HeartbeatMonitor::state(const std::string& name) const {
  return at(name).state;
}

int HeartbeatMonitor::consecutive_misses(const std::string& name) const {
  return at(name).misses;
}

}  // namespace avsec::health
