#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

/// Small stable index of the calling thread, for span records.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

void SpanRecorder::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"group\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, const char* name,
                       std::uint64_t parent, std::uint64_t group)
    : rec_(rec) {
  span_.id = rec.new_id();
  if (span_.id == 0) return;
  span_.parent = parent;
  span_.group = group != 0 ? group : span_.id;
  span_.name = name;
  span_.thread = thread_index();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  rec_.record(span_);
}

std::map<std::string, double> layer_self_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += static_cast<double>(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += static_cast<double>(cur_hi - cur_lo);
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
