// Deterministic sim-time tracing (paper §VIII: holistic multi-layer
// defense presumes you can see what every layer did, and when).
//
// A TraceRecorder is a fixed-capacity ring buffer of POD trace events
// stamped with simulation time (core::SimTime) — never wall clock — so a
// trace is a pure function of the run's seed and byte-identical at any
// campaign worker count. Events carry a category (which layer), a phase
// (span begin/end, instant, counter), a static name, two integer argument
// slots, and an optional interned detail string. One virtual thread-track
// per simulated node/bus keeps the Perfetto timeline zoomable per entity.
//
// Instrumentation sites use the AVSEC_TRACE_* macros against the ambient
// per-thread recorder installed by TraceScope:
//   - no recorder installed (the common case): one thread-local load and a
//     branch-predictable null check — near-zero hot-path cost;
//   - recorder installed but disabled: one extra flag check;
//   - AVSEC_OBS_COMPILED_OUT defined for the translation unit: the macros
//     expand to ((void)0) and the instrumentation compiles to nothing.
// The ambient recorder is thread-local, so parallel campaign workers each
// trace their own run without sharing or locking.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "avsec/core/time.hpp"
#include "avsec/obs/metrics.hpp"

namespace avsec::obs {

/// Which simulated layer emitted an event (one per instrumented module).
enum class Category : std::uint8_t {
  kScheduler,
  kCan,
  kEthernet,
  kSecproto,
  kIds,
  kHealth,
  kFault,
  kApp,
};

const char* category_name(Category c);

/// Chrome-trace-event phase of an event.
enum class Phase : std::uint8_t {
  kBegin,    // span open ("B")
  kEnd,      // span close ("E")
  kInstant,  // point event ("i")
  kCounter,  // sampled numeric series ("C")
};

const char* phase_name(Phase p);

/// Virtual thread-track id; 0 is the pre-registered "main" track.
using TrackId = std::uint16_t;

/// One recorded event. POD so the ring buffer stores values, not
/// allocations: `name` must be a string literal (static storage) and
/// `detail`, when set, points into the recorder's intern table.
struct TraceEvent {
  core::SimTime ts = 0;
  std::uint64_t seq = 0;  // recorder-assigned, stable tie-break at equal ts
  const char* name = nullptr;
  const char* detail = nullptr;  // interned; nullptr = none
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
  double value = 0.0;  // counter payload
  TrackId track = 0;
  Category category = Category::kApp;
  Phase phase = Phase::kInstant;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD: the ring buffer copies it raw");

/// Fixed-capacity ring buffer of trace events plus a MetricsRegistry.
/// When the ring is full the oldest events are overwritten (and counted
/// in dropped()), so a recorder bounds memory no matter how long a run is
/// while always retaining the newest — i.e. most forensic — window. The
/// ring's storage is reserved at the first event, not at construction:
/// campaign sweeps build a context per worker on every call, and one that
/// never traces then allocates none of it.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Registers a virtual thread-track (one per simulated node/bus) and
  /// returns its id. Registration order is deterministic per run because
  /// world construction is.
  TrackId register_track(std::string name);
  const std::vector<std::string>& track_names() const { return tracks_; }

  /// Interns a dynamic string; the returned pointer stays valid for the
  /// recorder's lifetime and repeated calls with equal content dedupe.
  const char* intern(std::string_view s);

  // --- recording -------------------------------------------------------
  void begin(Category cat, const char* name, TrackId track, core::SimTime ts,
             std::int64_t a0 = 0, std::int64_t a1 = 0,
             std::string_view detail = {});
  void end(Category cat, const char* name, TrackId track, core::SimTime ts);
  void instant(Category cat, const char* name, TrackId track,
               core::SimTime ts, std::int64_t a0 = 0, std::int64_t a1 = 0,
               std::string_view detail = {});
  void counter(Category cat, const char* name, TrackId track,
               core::SimTime ts, double value);

  // --- inspection ------------------------------------------------------
  std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  std::size_t size() const;
  /// Total events ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wraparound.
  std::uint64_t dropped() const;
  /// Current span nesting depth of a track (begin() - end(), floored at 0).
  int depth(TrackId track) const;
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Retained events, oldest first (the ring rotated into record order).
  std::vector<TraceEvent> chronological() const;

  void clear();

  /// Full between-run reset for pooled reuse: event count and per-track
  /// span depths rewind, registered tracks drop back to the pre-registered
  /// "main", and metrics clear — the next run observes a recorder
  /// indistinguishable from a freshly constructed one. The intern table is
  /// retained: it is a content-addressed cache (equal content always maps
  /// to one stable pointer), so keeping it cannot change emitted bytes,
  /// and skipping the ring/intern reallocation is most of the point of
  /// reusing a recorder across a campaign worker's runs.
  void reset();

 private:
  void push(const TraceEvent& ev);

  bool enabled_ = true;  // AVSEC-LINT-ALLOW(R6): operator policy, not scenario state — benches disable tracing once and expect it to stick across pooled reuse
  std::size_t capacity_;  // AVSEC-LINT-ALLOW(R6): ring size, fixed at construction
  std::vector<TraceEvent> ring_;  // AVSEC-LINT-ALLOW(R6): fixed-capacity storage, grown to capacity_ as events arrive; recorded_ is the watermark reset() rewinds, so stale slots are unreachable
  std::uint64_t recorded_ = 0;
  std::vector<std::string> tracks_;
  std::vector<int> depth_;
  std::map<std::string, const char*, std::less<>> intern_index_;  // AVSEC-LINT-ALLOW(R6): content-addressed intern table; pointers must stay stable across reset() (interning contract above)
  std::deque<std::string> intern_storage_;  // AVSEC-LINT-ALLOW(R6): backing storage for the intern table; shrinking it would dangle interned pointers
  MetricsRegistry metrics_;
};

// --- ambient per-thread recorder ---------------------------------------

namespace detail {
// Thread-local so parallel campaign workers trace independent runs; a
// plain pointer with constant initialization keeps the hot-path read free
// of TLS init guards. constinit on both the declaration and the definition
// tells every translation unit so: without it GCC routes reads through a
// TLS wrapper function, which UBSan flags as a null-pointer load.
extern constinit thread_local TraceRecorder* tl_recorder;
}  // namespace detail

/// The recorder instrumentation macros write to on this thread (nullptr =
/// tracing off).
inline TraceRecorder* current() { return detail::tl_recorder; }

/// Installs `r` as the ambient recorder; returns the previous one.
TraceRecorder* install(TraceRecorder* r);

/// RAII install/restore of the ambient recorder around a traced region
/// (e.g. one campaign run on a pool worker).
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder& r) : prev_(install(&r)) {}
  ~TraceScope() { install(prev_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* prev_;
};

}  // namespace avsec::obs

// --- instrumentation macros ---------------------------------------------
//
// Every site compiles to nothing under AVSEC_OBS_COMPILED_OUT; otherwise
// it checks the ambient recorder and forwards. Extra arguments after `ts`
// are (a0, a1, detail) for BEGIN/INSTANT.

#if defined(AVSEC_OBS_COMPILED_OUT)

#define AVSEC_TRACE_BEGIN(cat, name, track, ts, ...) ((void)0)
#define AVSEC_TRACE_END(cat, name, track, ts) ((void)0)
#define AVSEC_TRACE_INSTANT(cat, name, track, ts, ...) ((void)0)
#define AVSEC_TRACE_COUNTER(cat, name, track, ts, value) ((void)0)
#define AVSEC_METRIC_INC(name, n) ((void)0)
#define AVSEC_METRIC_OBSERVE(name, v) ((void)0)
#define AVSEC_OBS_REGISTER_TRACK(slot, track_name) ((void)0)

#else

#define AVSEC_TRACE_BEGIN(cat, name, track, ts, ...)                       \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->begin((cat), (name), (track),                          \
                          (ts)__VA_OPT__(, ) __VA_ARGS__);                 \
    }                                                                      \
  } while (0)

#define AVSEC_TRACE_END(cat, name, track, ts)                              \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->end((cat), (name), (track), (ts));                     \
    }                                                                      \
  } while (0)

#define AVSEC_TRACE_INSTANT(cat, name, track, ts, ...)                     \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->instant((cat), (name), (track),                        \
                            (ts)__VA_OPT__(, ) __VA_ARGS__);               \
    }                                                                      \
  } while (0)

#define AVSEC_TRACE_COUNTER(cat, name, track, ts, value)                   \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->counter((cat), (name), (track), (ts), (value));        \
    }                                                                      \
  } while (0)

#define AVSEC_METRIC_INC(name, n)                                          \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->metrics().inc((name), (n));                            \
    }                                                                      \
  } while (0)

#define AVSEC_METRIC_OBSERVE(name, v)                                      \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr && avsec_obs_r_->enabled()) {              \
      avsec_obs_r_->metrics().observe((name), (v));                        \
    }                                                                      \
  } while (0)

// Track registration at world-construction time: components cache the id
// of their own virtual thread-track in `slot` (stays 0 when no recorder
// is ambient, which routes their events to the "main" track).
#define AVSEC_OBS_REGISTER_TRACK(slot, track_name)                         \
  do {                                                                     \
    ::avsec::obs::TraceRecorder* avsec_obs_r_ = ::avsec::obs::current();   \
    if (avsec_obs_r_ != nullptr) {                                         \
      (slot) = avsec_obs_r_->register_track(track_name);                   \
    }                                                                      \
  } while (0)

#endif  // AVSEC_OBS_COMPILED_OUT
