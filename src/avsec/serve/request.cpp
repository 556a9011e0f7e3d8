#include "avsec/serve/request.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>

namespace avsec::serve {
namespace {

// %.17g round-trips every finite double exactly and is locale-independent
// for the characters it emits, so rendered replies are byte-stable.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

const char* reply_status_name(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::kOk: return "ok";
    case ReplyStatus::kDegraded: return "degraded";
    case ReplyStatus::kQuarantined: return "quarantined";
    case ReplyStatus::kRejected: return "rejected";
    case ReplyStatus::kInfeasible: return "infeasible";
    case ReplyStatus::kOverloaded: return "overloaded";
    case ReplyStatus::kExpired: return "expired";
  }
  return "?";
}

std::string render_reply(const Reply& r) {
  std::string out;
  out.reserve(256);
  out += "{\"id\":";
  append_u64(out, r.ticket);
  out += ",\"status\":\"";
  out += reply_status_name(r.status);
  out += "\",\"scenario\":";
  append_json_string(out, r.scenario);
  out += ",\"scale\":\"";
  out += scale_name(r.scale);
  out += "\",\"detail\":";
  append_json_string(out, r.detail);
  out += ",\"seeds\":[";
  for (std::size_t i = 0; i < r.seeds.size(); ++i) {
    const SeedOutcome& s = r.seeds[i];
    if (i) out += ',';
    out += "{\"seed\":";
    append_u64(out, s.seed);
    out += ",\"status\":\"";
    out += fault::run_status_name(s.status);
    out += "\",\"attempts\":";
    append_u64(out, s.attempts);
    if (!s.error.empty()) {
      out += ",\"error\":";
      append_json_string(out, s.error);
    }
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : s.metrics) {
      if (!first) out += ',';
      first = false;
      append_json_string(out, name);
      out += ':';
      append_double(out, value);
    }
    out += "}}";
  }
  out += "],\"aggregate\":{";
  bool first = true;
  for (const auto& [name, acc] : r.aggregate) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"n\":";
    append_u64(out, acc.count());
    out += ",\"mean\":";
    append_double(out, acc.mean());
    out += ",\"min\":";
    append_double(out, acc.min());
    out += ",\"max\":";
    append_double(out, acc.max());
    out += '}';
  }
  out += '}';
  if (!r.trace.empty()) {
    out += ",\"trace\":";
    append_json_string(out, r.trace);
  }
  out += '}';
  return out;
}

namespace {

// The largest deadline_ms accepted: its nanosecond form takes at most half
// of int64, so the RunGuard's steady-clock now + deadline cannot overflow.
constexpr std::uint64_t kMaxDeadlineMs = INT64_MAX / 2'000'000;

// Minimal scanner for the daemon's flat request objects. Not a general
// JSON parser: it handles one object of scalar / flat-array fields, which
// is the entire request schema, and rejects anything else with a message.
class RequestScanner {
 public:
  explicit RequestScanner(std::string_view s) : s_(s) {}

  bool parse(Request& out, std::string& error) {
    skip_ws();
    if (!expect('{', error)) return false;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      error = "request is missing required key \"scenario\"";
      return false;
    }
    bool have_scenario = false;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (!expect(':', error)) return false;
      skip_ws();
      if (key == "scenario") {
        if (!parse_string(out.scenario, error)) return false;
        have_scenario = true;
      } else if (key == "seeds") {
        if (!parse_seed_array(out.seeds, error)) return false;
      } else if (key == "deadline_ms") {
        std::uint64_t v = 0;
        if (!parse_count(key, kMaxDeadlineMs, v, error)) return false;
        out.deadline_ms = static_cast<std::int64_t>(v);
      } else if (key == "max_events") {
        if (!parse_count(key, UINT64_MAX, out.max_events, error)) {
          return false;
        }
      } else if (key == "trace") {
        if (!parse_bool(out.trace, error)) return false;
      } else if (!skip_value(error)) {  // unknown keys tolerated
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    skip_ws();
    if (!expect('}', error)) return false;
    skip_ws();
    if (pos_ != s_.size()) {
      error = "trailing bytes after request object";
      return false;
    }
    if (!have_scenario) {
      error = "request is missing required key \"scenario\"";
      return false;
    }
    return true;
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool expect(char c, std::string& error) {
    if (peek() != c) {
      error = std::string("expected '") + c + "' at byte " +
              std::to_string(pos_);
      return false;
    }
    ++pos_;
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (!expect('"', error)) return false;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default:
            error = "unsupported string escape";
            return false;
        }
      }
      out += c;
    }
    return expect('"', error);
  }

  // Digits only. A value outside uint64 is refused, never clamped.
  bool parse_u64(std::uint64_t& out, std::string& error) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      error = "expected an unsigned integer at byte " + std::to_string(start);
      return false;
    }
    const char* last = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, last, out);
    if (ec != std::errc() || ptr != last) {
      error = "integer out of range at byte " + std::to_string(start);
      return false;
    }
    return true;
  }

  // A non-negative integer field no larger than `max`.
  bool parse_count(const std::string& key, std::uint64_t max,
                   std::uint64_t& out, std::string& error) {
    const std::size_t start = pos_;
    if (peek() == '-') {
      error = key + " must be non-negative at byte " + std::to_string(start);
      return false;
    }
    if (!parse_u64(out, error)) return false;
    if (out > max) {
      error = key + " out of range at byte " + std::to_string(start);
      return false;
    }
    return true;
  }

  bool parse_bool(bool& out, std::string& error) {
    if (s_.substr(pos_, 4) == "true") {
      out = true;
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      out = false;
      pos_ += 5;
      return true;
    }
    error = "expected true/false at byte " + std::to_string(pos_);
    return false;
  }

  bool parse_seed_array(std::vector<std::uint64_t>& out, std::string& error) {
    if (!expect('[', error)) return false;
    out.clear();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::uint64_t v = 0;
      if (!parse_u64(v, error)) return false;
      out.push_back(v);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    return expect(']', error);
  }

  // Skips one scalar or flat-array value for unknown keys.
  bool skip_value(std::string& error) {
    std::string sink_s;
    bool sink_b = false;
    std::uint64_t sink_u = 0;
    if (peek() == '"') return parse_string(sink_s, error);
    if (peek() == 't' || peek() == 'f') return parse_bool(sink_b, error);
    if (peek() == '[') {
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        if (!skip_value(error)) return false;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      return expect(']', error);
    }
    if (peek() == '-') ++pos_;
    return parse_u64(sink_u, error);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_request(std::string_view line, Request& out, std::string& error) {
  out = Request{};
  error.clear();
  return RequestScanner(line).parse(out, error);
}

}  // namespace avsec::serve
