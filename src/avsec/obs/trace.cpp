#include "avsec/obs/trace.hpp"

#include <algorithm>

namespace avsec::obs {

const char* category_name(Category c) {
  switch (c) {
    case Category::kScheduler: return "scheduler";
    case Category::kCan: return "can";
    case Category::kEthernet: return "ethernet";
    case Category::kSecproto: return "secproto";
    case Category::kIds: return "ids";
    case Category::kHealth: return "health";
    case Category::kFault: return "fault";
    case Category::kApp: return "app";
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
    case Phase::kCounter: return "C";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  tracks_.push_back("main");
  depth_.push_back(0);
}

TrackId TraceRecorder::register_track(std::string name) {
  tracks_.push_back(std::move(name));
  depth_.push_back(0);
  return static_cast<TrackId>(tracks_.size() - 1);
}

const char* TraceRecorder::intern(std::string_view s) {
  auto it = intern_index_.find(s);
  if (it != intern_index_.end()) return it->second;
  intern_storage_.emplace_back(s);
  const char* stable = intern_storage_.back().c_str();
  intern_index_.emplace(intern_storage_.back(), stable);
  return stable;
}

void TraceRecorder::push(const TraceEvent& ev) {
  const auto slot = static_cast<std::size_t>(recorded_ % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = ev;
  } else {
    if (ring_.empty()) ring_.reserve(capacity_);
    ring_.push_back(ev);
  }
  ++recorded_;
}

void TraceRecorder::begin(Category cat, const char* name, TrackId track,
                          core::SimTime ts, std::int64_t a0, std::int64_t a1,
                          std::string_view detail) {
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = recorded_;
  ev.name = name;
  ev.detail = detail.empty() ? nullptr : intern(detail);
  ev.a0 = a0;
  ev.a1 = a1;
  ev.track = track;
  ev.category = cat;
  ev.phase = Phase::kBegin;
  if (track < depth_.size()) ++depth_[track];
  push(ev);
}

void TraceRecorder::end(Category cat, const char* name, TrackId track,
                        core::SimTime ts) {
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = recorded_;
  ev.name = name;
  ev.track = track;
  ev.category = cat;
  ev.phase = Phase::kEnd;
  if (track < depth_.size() && depth_[track] > 0) --depth_[track];
  push(ev);
}

void TraceRecorder::instant(Category cat, const char* name, TrackId track,
                            core::SimTime ts, std::int64_t a0,
                            std::int64_t a1, std::string_view detail) {
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = recorded_;
  ev.name = name;
  ev.detail = detail.empty() ? nullptr : intern(detail);
  ev.a0 = a0;
  ev.a1 = a1;
  ev.track = track;
  ev.category = cat;
  ev.phase = Phase::kInstant;
  push(ev);
}

void TraceRecorder::counter(Category cat, const char* name, TrackId track,
                            core::SimTime ts, double value) {
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = recorded_;
  ev.name = name;
  ev.value = value;
  ev.track = track;
  ev.category = cat;
  ev.phase = Phase::kCounter;
  push(ev);
}

std::size_t TraceRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded_, capacity_));
}

std::uint64_t TraceRecorder::dropped() const {
  return recorded_ - static_cast<std::uint64_t>(size());
}

int TraceRecorder::depth(TrackId track) const {
  return track < depth_.size() ? depth_[track] : 0;
}

std::vector<TraceEvent> TraceRecorder::chronological() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest retained event first: when the ring has wrapped, that is the
  // slot the next push would overwrite.
  const std::size_t start =
      recorded_ > capacity_
          ? static_cast<std::size_t>(recorded_ % capacity_)
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void TraceRecorder::clear() {
  recorded_ = 0;
  std::fill(depth_.begin(), depth_.end(), 0);
}

void TraceRecorder::reset() {
  recorded_ = 0;
  tracks_.resize(1);  // keep the pre-registered "main" track only
  depth_.assign(1, 0);
  metrics_.clear();
}

namespace detail {
constinit thread_local TraceRecorder* tl_recorder = nullptr;
}  // namespace detail

TraceRecorder* install(TraceRecorder* r) {
  TraceRecorder* prev = detail::tl_recorder;
  detail::tl_recorder = r;
  return prev;
}

}  // namespace avsec::obs
