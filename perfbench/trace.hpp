// The benchmark's own spans: recorded around its calls into each avsec
// layer (generate, compile, sweep, each run, submit, wait), kept in
// memory, written out as JSON lines when the benchmark ends, and folded
// into per-layer self time. Nothing here reaches inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (host time, never simulated time).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;   // shared by every span of one sweep or request
  const char* name = "";     // "<layer>.<what>"; layer = text before '.'
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  // small per-process thread index
};

/// Thread-safe in-memory span store. When disabled, nothing is recorded
/// and new_id() returns 0, so the untraced run pays one branch per site.
class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::uint64_t new_id() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  void record(const Span& s);

  /// Snapshot of every recorded span (call once worker threads are done).
  std::vector<Span> spans() const;
  /// One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t parent,
             std::uint64_t group);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Regroups the span once its request id is known (e.g. a ticket).
  void set_group(std::uint64_t group) {
    if (span_.id != 0) span_.group = group;
  }

 private:
  SpanRecorder& rec_;
  Span span_;
};

/// Self time per layer in nanoseconds: each span's duration minus the
/// part of its interval covered by its children (the union, since
/// children on pool threads overlap), summed by layer name.
std::map<std::string, double> layer_self_ns(const std::vector<Span>& spans);

}  // namespace perfbench
