#include "avsec/obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cinttypes>

#include "avsec/core/bytes.hpp"

namespace avsec::obs {
namespace {

// Picoseconds -> "microseconds.fraction" printed from integers, so the
// serialization never rounds through a double.
std::string ts_microseconds(core::SimTime ps) {
  const bool neg = ps < 0;
  const std::int64_t abs_ps = neg ? -ps : ps;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%" PRId64 ".%06" PRId64, neg ? "-" : "",
                abs_ps / 1'000'000, abs_ps % 1'000'000);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // names are ASCII; control chars never expected
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// Retained events in (ts, seq) order. Events are recorded in seq order
// and sim time is monotone within a run, so this is normally a no-op
// stable sort; it guarantees the non-decreasing-ts export contract even
// for hand-built recorders.
std::vector<TraceEvent> sorted_events(const TraceRecorder& rec) {
  std::vector<TraceEvent> events = rec.chronological();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.seq < b.seq;
                   });
  return events;
}

}  // namespace

std::string chrome_trace_json(const TraceRecorder& rec) {
  std::string out;
  out += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  // Metadata: name the process and one virtual thread per track, ordered
  // by registration so Perfetto shows world-construction order.
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"avsec-sim\"}}";
  const auto& tracks = rec.track_names();
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out += ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(t) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           json_escape(tracks[t]) + "\"}}";
    out += ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(t) +
           ", \"name\": \"thread_sort_index\", \"args\": {\"sort_index\": " +
           std::to_string(t) + "}}";
  }
  for (const TraceEvent& ev : sorted_events(rec)) {
    out += ",\n{\"name\": \"";
    out += json_escape(ev.name != nullptr ? ev.name : "?");
    out += "\", \"cat\": \"";
    out += category_name(ev.category);
    out += "\", \"ph\": \"";
    out += phase_name(ev.phase);
    out += "\", \"pid\": 1, \"tid\": " + std::to_string(ev.track) +
           ", \"ts\": " + ts_microseconds(ev.ts);
    switch (ev.phase) {
      case Phase::kBegin:
      case Phase::kInstant: {
        if (ev.phase == Phase::kInstant) out += ", \"s\": \"t\"";
        out += ", \"args\": {\"a0\": " + std::to_string(ev.a0) +
               ", \"a1\": " + std::to_string(ev.a1);
        if (ev.detail != nullptr) {
          out += ", \"detail\": \"" + json_escape(ev.detail) + "\"";
        }
        out += "}";
        break;
      }
      case Phase::kEnd:
        break;
      case Phase::kCounter:
        out += ", \"args\": {\"value\": " + core::format_double(ev.value) + "}";
        break;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const TraceRecorder& rec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(rec);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

std::string text_dump(const TraceRecorder& rec) {
  std::string out;
  out += "# avsec trace: retained=" + std::to_string(rec.size()) +
         " recorded=" + std::to_string(rec.recorded()) +
         " dropped=" + std::to_string(rec.dropped()) + "\n";
  const auto& tracks = rec.track_names();
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out += "# track " + std::to_string(t) + " " + tracks[t] + "\n";
  }
  for (const TraceEvent& ev : sorted_events(rec)) {
    out += "ts=" + std::to_string(ev.ts);
    out += " track=" + std::to_string(ev.track);
    out += " ph=";
    out += phase_name(ev.phase);
    out += " cat=";
    out += category_name(ev.category);
    out += " name=";
    out += ev.name != nullptr ? ev.name : "?";
    if (ev.phase == Phase::kCounter) {
      out += " value=" + core::format_double(ev.value);
    } else if (ev.phase != Phase::kEnd) {
      out += " a0=" + std::to_string(ev.a0) +
             " a1=" + std::to_string(ev.a1);
      if (ev.detail != nullptr) {
        out += " detail=";
        out += ev.detail;
      }
    }
    out += "\n";
  }
  out += rec.metrics().text_dump();
  return out;
}

}  // namespace avsec::obs
