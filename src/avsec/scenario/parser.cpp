#include "avsec/scenario/parser.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "avsec/scenario/compile.hpp"

namespace avsec::scenario {
namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// One physical line, comment-stripped, split into the raw text and
/// whether it was indented (a property) or flush-left (a section header).
struct Line {
  int number = 0;        // 1-based
  bool indented = false;
  std::string text;      // trimmed, comment-stripped; never empty
};

/// Strips a trailing comment: everything from the first '#' that is not
/// inside a double-quoted string.
std::string strip_comment(std::string_view raw) {
  bool quoted = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '"') quoted = !quoted;
    if (raw[i] == '#' && !quoted) return std::string(raw.substr(0, i));
  }
  return std::string(raw);
}

std::vector<Line> split_lines(std::string_view text) {
  std::vector<Line> out;
  int number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ++number;
    const std::string stripped = strip_comment(text.substr(start, end - start));
    std::size_t first = 0;
    while (first < stripped.size() && is_space(stripped[first])) ++first;
    std::size_t last = stripped.size();
    while (last > first && is_space(stripped[last - 1])) --last;
    if (last > first) {
      Line l;
      l.number = number;
      l.indented = first > 0;
      l.text = stripped.substr(first, last - first);
      out.push_back(std::move(l));
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

/// Whitespace-separated fields of one logical line.
std::vector<std::string> fields_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t j = i;
    while (j < text.size() && !is_space(text[j])) ++j;
    if (j > i) out.push_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

/// The recursive-descent parser: file -> section* ; section -> header
/// property* ; property -> key value(s). State is the line cursor; each
/// parse_* consumes the lines it understands and sets err_ on failure.
class Parser {
 public:
  Parser(std::string_view text, const std::string& file)
      : lines_(split_lines(text)), file_(file) {
    result_.spec.source_file = file;
  }

  ParseResult run() {
    bool seen_scenario = false;
    while (pos_ < lines_.size() && !failed_) {
      const Line& l = lines_[pos_];
      if (l.indented) {
        fail(l.number, "property '" + fields_of(l.text).front() +
                           "' outside any section");
        break;
      }
      const std::vector<std::string> f = fields_of(l.text);
      const std::string& keyword = f.front();
      if (keyword == "scenario") {
        if (seen_scenario) {
          fail(l.number, "duplicate section: scenario");
          break;
        }
        seen_scenario = true;
        parse_scenario(f, l.number);
      } else if (keyword == "topology") {
        parse_topology(f, l.number);
      } else if (keyword == "protocol") {
        parse_protocol(f, l.number);
      } else if (keyword == "defense") {
        parse_defense(f, l.number);
      } else if (keyword == "attack" || keyword == "fault") {
        parse_attack(f, l.number,
                     keyword == "attack" ? Provenance::kAttack
                                         : Provenance::kFault);
      } else if (keyword == "inject") {
        parse_inject(f, l.number);
      } else if (keyword == "oracle") {
        parse_oracle(f, l.number);
      } else {
        fail(l.number, "unknown section '" + keyword + "'");
        break;
      }
    }
    if (!failed_ && !seen_scenario) {
      fail(1, "missing required section: scenario");
    }
    if (!failed_ && result_.spec.name.empty()) {
      fail(1, "scenario: expected a name");
    }
    // An absent defense section is the strongest posture the topology
    // supports: defended where recovery lowers, monitored on t1s.
    if (!failed_ && !seen_defense_) {
      spec().defense = valid_postures(spec().topology).back();
    }
    result_.ok = !failed_;
    return std::move(result_);
  }

 private:
  ScenarioSpec& spec() { return result_.spec; }

  void fail(int line, std::string message) {
    if (failed_) return;
    failed_ = true;
    result_.error.file = file_;
    result_.error.line = line;
    result_.error.message = std::move(message);
  }

  /// True while the next line is an indented property line.
  bool at_property() const {
    return pos_ < lines_.size() && lines_[pos_].indented;
  }

  // --- scalar parsers ----------------------------------------------------

  bool parse_u64(const std::string& s, std::uint64_t& out) {
    const char* b = s.data();
    const char* e = b + s.size();
    const auto [p, ec] = std::from_chars(b, e, out);
    return ec == std::errc() && p == e;
  }

  bool parse_f64(const std::string& s, double& out) {
    const char* b = s.data();
    const char* e = b + s.size();
    const auto [p, ec] = std::from_chars(b, e, out);
    return ec == std::errc() && p == e;
  }

  bool parse_time(const std::string& s, core::SimTime& out) {
    std::size_t i = 0;
    while (i < s.size() &&
           (s[i] >= '0' && s[i] <= '9')) {
      ++i;
    }
    if (i == 0 || i == s.size()) return false;
    std::uint64_t v = 0;
    if (!parse_u64(s.substr(0, i), v)) return false;
    const std::string_view unit = std::string_view(s).substr(i);
    core::SimTime scale = 0;
    if (unit == "s") scale = core::kSecond;
    else if (unit == "ms") scale = core::kMillisecond;
    else if (unit == "us") scale = core::kMicrosecond;
    else if (unit == "ns") scale = core::kNanosecond;
    else if (unit == "ps") scale = core::kPicosecond;
    else return false;
    if (v > static_cast<std::uint64_t>(
                std::numeric_limits<core::SimTime>::max() / scale)) {
      return false;
    }
    out = static_cast<core::SimTime>(v) * scale;
    return true;
  }

  // --- property helpers: each validates arity + range and fails with the
  // exact message the parser tests assert -------------------------------

  bool want_arity(const std::vector<std::string>& f, std::size_t n, int line,
                  const char* what) {
    if (f.size() == n) return true;
    fail(line, std::string(f.front()) + ": expected " + what);
    return false;
  }

  bool prop_u64(const std::vector<std::string>& f, int line,
                std::uint64_t lo, std::uint64_t hi, std::uint64_t& out) {
    if (!want_arity(f, 2, line, "one unsigned integer")) return false;
    std::uint64_t v = 0;
    if (!parse_u64(f[1], v)) {
      fail(line, f[0] + ": expected an unsigned integer, got '" + f[1] + "'");
      return false;
    }
    if (v < lo || v > hi) {
      fail(line, f[0] + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + f[1]);
      return false;
    }
    out = v;
    return true;
  }

  bool prop_time(const std::vector<std::string>& f, int line,
                 core::SimTime lo, core::SimTime hi, core::SimTime& out) {
    if (!want_arity(f, 2, line, "one time literal")) return false;
    core::SimTime v = 0;
    if (!parse_time(f[1], v)) {
      fail(line,
           f[0] + ": expected a time literal like 250ms, got '" + f[1] + "'");
      return false;
    }
    if (v < lo || v > hi) {
      fail(line, f[0] + " must be in [" + time_literal(lo) + ", " +
                     time_literal(hi) + "], got " + f[1]);
      return false;
    }
    out = v;
    return true;
  }

  bool prop_on_off(const std::vector<std::string>& f, int line, bool& out) {
    if (!want_arity(f, 2, line, "'on' or 'off'")) return false;
    if (f[1] == "on") {
      out = true;
    } else if (f[1] == "off") {
      out = false;
    } else {
      fail(line, f[0] + ": expected 'on' or 'off', got '" + f[1] + "'");
      return false;
    }
    return true;
  }

  // --- sections ----------------------------------------------------------

  void parse_scenario(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (f.size() != 2) {
      fail(line, "scenario: expected a name");
      return;
    }
    spec().name = f[1];
    while (at_property() && !failed_) {
      const Line& l = lines_[pos_++];
      const std::vector<std::string> p = fields_of(l.text);
      if (p[0] == "describe") {
        // The quoted string may contain spaces: re-join from the raw text.
        const std::size_t q1 = l.text.find('"');
        const std::size_t q2 = l.text.rfind('"');
        if (q1 == std::string::npos || q2 == q1) {
          fail(l.number, "describe: expected a quoted string");
          return;
        }
        spec().description = l.text.substr(q1 + 1, q2 - q1 - 1);
      } else if (p[0] == "runs") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 1, 10000, v)) return;
        spec().runs = static_cast<std::size_t>(v);
      } else if (p[0] == "seed") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 0, ~0ULL, v)) return;
        spec().seed = v;
      } else if (p[0] == "horizon") {
        if (!prop_time(p, l.number, core::milliseconds(1), core::seconds(10),
                       spec().horizon)) {
          return;
        }
      } else {
        fail(l.number, "unknown property '" + p[0] + "' in scenario section");
        return;
      }
    }
  }

  void parse_topology(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (seen_topology_) {
      fail(line, "duplicate section: topology");
      return;
    }
    seen_topology_ = true;
    spec().topology_line = line;
    if (!parse_topology_name(f, line)) return;
    while (at_property() && !failed_) {
      const Line& l = lines_[pos_++];
      const std::vector<std::string> p = fields_of(l.text);
      if (p[0] == "nodes") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 2, 16, v)) return;
        spec().nodes = static_cast<int>(v);
      } else if (p[0] == "period") {
        if (!prop_time(p, l.number, core::microseconds(100), core::seconds(1),
                       spec().period)) {
          return;
        }
      } else if (p[0] == "payload") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 1, 64, v)) return;
        spec().payload = static_cast<std::size_t>(v);
      } else {
        fail(l.number, "unknown property '" + p[0] + "' in topology section");
        return;
      }
    }
  }

  bool parse_topology_name(const std::vector<std::string>& f, int line) {
    if (f.size() != 2) {
      fail(line, "topology: expected one of can, t1s, link, heartbeat");
      return false;
    }
    if (!scenario::parse_topology(f[1], spec().topology)) {
      fail(line, "unknown topology '" + f[1] +
                     "' (expected can, t1s, link or heartbeat)");
      return false;
    }
    return true;
  }

  void parse_protocol(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (seen_protocol_) {
      fail(line, "duplicate section: protocol");
      return;
    }
    seen_protocol_ = true;
    spec().protocol_line = line;
    if (f.size() != 2) {
      fail(line, "protocol: expected one of none, secoc, cansec, macsec, tls");
      return;
    }
    if (!scenario::parse_protocol(f[1], spec().protocol)) {
      fail(line, "unknown protocol '" + f[1] +
                     "' (expected none, secoc, cansec, macsec or tls)");
      return;
    }
    if (at_property()) {
      fail(lines_[pos_].number,
           "unknown property '" + fields_of(lines_[pos_].text)[0] +
               "' in protocol section");
    }
  }

  void parse_defense(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (seen_defense_) {
      fail(line, "duplicate section: defense");
      return;
    }
    seen_defense_ = true;
    if (f.size() != 1) {
      fail(line, "defense: takes no arguments");
      return;
    }
    while (at_property() && !failed_) {
      const Line& l = lines_[pos_++];
      const std::vector<std::string> p = fields_of(l.text);
      if (p[0] == "monitor") {
        if (!prop_on_off(p, l.number, spec().defense.monitor)) return;
      } else if (p[0] == "recovery") {
        if (!prop_on_off(p, l.number, spec().defense.recovery)) return;
      } else {
        fail(l.number, "unknown property '" + p[0] + "' in defense section");
        return;
      }
    }
  }

  void parse_attack(const std::vector<std::string>& f, int line,
                    Provenance provenance) {
    ++pos_;
    AttackEntry a;
    a.provenance = provenance;
    a.line = line;
    const char* section = provenance == Provenance::kAttack ? "attack" : "fault";
    if (f.size() != 2) {
      fail(line, std::string(section) + ": expected an attack kind");
      return;
    }
    if (!scenario::parse_attack_kind(f[1], a.kind)) {
      fail(line, std::string("unknown ") + section + " kind '" + f[1] + "'");
      return;
    }
    while (at_property() && !failed_) {
      const Line& l = lines_[pos_++];
      const std::vector<std::string> p = fields_of(l.text);
      if (p[0] == "target") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 0, 15, v)) return;
        a.target = static_cast<int>(v);
      } else if (p[0] == "at") {
        if (!prop_time(p, l.number, 0, core::seconds(60), a.at)) return;
      } else if (p[0] == "duration") {
        if (!prop_time(p, l.number, 0, core::seconds(60), a.duration)) return;
      } else if (p[0] == "delta") {
        if (!prop_time(p, l.number, 0, core::seconds(1), a.delta)) return;
      } else if (p[0] == "magnitude") {
        if (!want_arity(p, 2, l.number, "one number")) return;
        double v = 0.0;
        if (!parse_f64(p[1], v)) {
          fail(l.number, "magnitude: expected a number, got '" + p[1] + "'");
          return;
        }
        const bool unit_interval = a.kind == AttackKind::kLinkDrop ||
                                   a.kind == AttackKind::kLinkCorrupt ||
                                   a.kind == AttackKind::kBabblingIdiot ||
                                   a.kind == AttackKind::kMute;
        if (v < 0.0 || (unit_interval && v > 1.0)) {
          fail(l.number,
               unit_interval
                   ? "magnitude must be in [0, 1] for " +
                         std::string(attack_kind_name(a.kind)) + ", got " +
                         p[1]
                   : "magnitude must be >= 0, got " + p[1]);
          return;
        }
        a.magnitude = v;
      } else if (p[0] == "count") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 1, 1000, v)) return;
        a.count = static_cast<std::uint32_t>(v);
      } else {
        fail(l.number, "unknown property '" + p[0] + "' in " + section +
                           " section");
        return;
      }
    }
    if (!failed_) spec().attacks.push_back(std::move(a));
  }

  void parse_inject(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (f.size() != 2 || f[1] != "random") {
      fail(line, "inject: expected 'inject random'");
      return;
    }
    RandomInject r;
    r.line = line;
    bool have_kinds = false;
    while (at_property() && !failed_) {
      const Line& l = lines_[pos_++];
      const std::vector<std::string> p = fields_of(l.text);
      if (p[0] == "count") {
        std::uint64_t v = 0;
        if (!prop_u64(p, l.number, 1, 64, v)) return;
        r.count = static_cast<std::size_t>(v);
      } else if (p[0] == "window") {
        if (p.size() != 3 || !parse_time(p[1], r.window_start) ||
            !parse_time(p[2], r.window_end) ||
            r.window_end <= r.window_start) {
          fail(l.number,
               "window: expected two time literals with start < end");
          return;
        }
      } else if (p[0] == "durations") {
        if (p.size() != 3 || !parse_time(p[1], r.min_duration) ||
            !parse_time(p[2], r.max_duration) ||
            r.max_duration < r.min_duration) {
          fail(l.number,
               "durations: expected two time literals with min <= max");
          return;
        }
      } else if (p[0] == "kinds") {
        if (p.size() < 2) {
          fail(l.number, "kinds: expected at least one attack kind");
          return;
        }
        r.kinds.clear();
        for (std::size_t i = 1; i < p.size(); ++i) {
          AttackKind k{};
          if (!scenario::parse_attack_kind(p[i], k)) {
            fail(l.number, "unknown fault kind '" + p[i] + "' in kinds");
            return;
          }
          r.kinds.push_back(k);
        }
        have_kinds = true;
      } else {
        fail(l.number, "unknown property '" + p[0] + "' in inject section");
        return;
      }
    }
    if (failed_) return;
    if (!have_kinds) {
      fail(line, "inject random: missing 'kinds' property");
      return;
    }
    spec().injects.push_back(std::move(r));
  }

  void parse_oracle(const std::vector<std::string>& f, int line) {
    ++pos_;
    if (f.size() != 4) {
      fail(line, "oracle: expected 'oracle <metric> <op> <value>'");
      return;
    }
    Oracle o;
    o.line = line;
    o.metric = f[1];
    if (!scenario::parse_oracle_op(f[2], o.op)) {
      fail(line, "oracle: unknown comparator '" + f[2] + "'");
      return;
    }
    if (!parse_f64(f[3], o.value)) {
      fail(line, "oracle: expected a numeric value, got '" + f[3] + "'");
      return;
    }
    if (at_property()) {
      fail(lines_[pos_].number,
           "unknown property '" + fields_of(lines_[pos_].text)[0] +
               "' in oracle section");
      return;
    }
    spec().oracles.push_back(std::move(o));
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
  std::string file_;
  ParseResult result_;
  bool failed_ = false;
  bool seen_topology_ = false;
  bool seen_protocol_ = false;
  bool seen_defense_ = false;
};

}  // namespace

std::string ParseError::to_string() const {
  return file + ":" + std::to_string(line) + ": " + message;
}

ParseResult parse_scenario_text(std::string_view text,
                                const std::string& file_label) {
  return Parser(text, file_label).run();
}

ParseResult parse_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ParseResult r;
    r.error.file = path;
    r.error.line = 0;
    r.error.message = "cannot open file";
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str(), path);
}

}  // namespace avsec::scenario
