#include "avsec/fault/manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "avsec/core/bytes.hpp"
#include "avsec/core/crc.hpp"

namespace avsec::fault {
namespace {

// Run lines appended between fsyncs of the journal.
constexpr std::size_t kFsyncEvery = 8;

// --- serialization -------------------------------------------------------
//
// Every numeric field round-trips bit-exactly: u64s (seeds) print as
// fixed-width hex strings, doubles print as the hex of their IEEE-754 bit
// pattern. Decimal would be lossy for the doubles and lossless-but-slower
// for the seeds; hex is both exact and trivially parseable.

void append_hex_u64(std::string& out, std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_quoted_hex_u64(std::string& out, std::uint64_t v) {
  out += '"';
  append_hex_u64(out, v);
  out += '"';
}

// Seals a line body: appends the CRC-32 of everything built so far as the
// fixed-width final field, closes the object, adds the newline. The fixed
// suffix width (20 bytes + '\n') is what lets the reader locate and check
// the digest without parsing first.
constexpr std::size_t kCrcSuffixLen = 20;  // ,"crc":"0x12345678"}

std::string seal_line(std::string body) {
  char buf[kCrcSuffixLen + 1];
  const auto* data = reinterpret_cast<const std::uint8_t*>(body.data());
  std::snprintf(buf, sizeof(buf), ",\"crc\":\"0x%08x\"}",
                core::crc32_ieee(core::BytesView(data, body.size())));
  body += buf;
  body += '\n';
  return body;
}

// --- parsing -------------------------------------------------------------
//
// A strict cursor over one line. The writer emits fields in one fixed
// order, so the reader demands exactly that order — anything else fails
// the parse and the line is dropped (the CRC already vouched for the
// bytes; strictness here guards against format drift, not corruption).

struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  bool lit(std::string_view expect) {
    if (s.substr(pos, expect.size()) != expect) return false;
    pos += expect.size();
    return true;
  }

  bool peek(char c) const { return pos < s.size() && s[pos] == c; }

  // Consumes a decimal u64; a value that overflows fails the parse.
  bool u64_dec(std::uint64_t& out) {
    const char* first = s.data() + pos;
    const auto [end, ec] = std::from_chars(first, s.data() + s.size(), out);
    if (ec != std::errc{}) return false;
    pos += static_cast<std::size_t>(end - first);
    return true;
  }

  // Consumes "0x" + exactly 16 hex digits (no surrounding quotes).
  bool u64_hex(std::uint64_t& out) {
    if (!lit("0x")) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 16; ++i) {
      if (pos >= s.size()) return false;
      const char c = s[pos];
      int d = 0;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else return false;
      v = (v << 4) | static_cast<std::uint64_t>(d);
      ++pos;
    }
    out = v;
    return true;
  }

  bool quoted_u64_hex(std::uint64_t& out) {
    return lit("\"") && u64_hex(out) && lit("\"");
  }

  // Consumes a quoted JSON string, undoing append_json_string's escapes.
  bool json_string(std::string& out) {
    if (!lit("\"")) return false;
    out.clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) return false;
      const char e = s[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos + 4 > s.size()) return false;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            int d = 0;
            if (h >= '0' && h <= '9') d = h - '0';
            else if (h >= 'a' && h <= 'f') d = h - 'a' + 10;
            else return false;
            v = (v << 4) | static_cast<unsigned>(d);
          }
          if (v > 0xff) return false;  // writer only emits \u00XX
          out += static_cast<char>(v);
          break;
        }
        default: return false;
      }
    }
    return false;  // ran off the end inside the string
  }

  bool done() const { return pos == s.size(); }
};

// Splits off and verifies the CRC suffix; on success returns true and
// shrinks `line` to the covered body.
bool check_crc(std::string_view& line) {
  if (line.size() < kCrcSuffixLen + 2) return false;  // "{}" + suffix min
  const std::string_view suffix = line.substr(line.size() - kCrcSuffixLen);
  Cursor c{suffix};
  std::uint64_t stored = 0;
  if (!c.lit(",\"crc\":\"0x")) return false;
  for (int i = 0; i < 8; ++i) {
    const char h = suffix[c.pos++];
    int d = 0;
    if (h >= '0' && h <= '9') d = h - '0';
    else if (h >= 'a' && h <= 'f') d = h - 'a' + 10;
    else return false;
    stored = (stored << 4) | static_cast<std::uint64_t>(d);
  }
  if (suffix.substr(c.pos) != "\"}") return false;
  const std::string_view body = line.substr(0, line.size() - kCrcSuffixLen);
  const auto* data = reinterpret_cast<const std::uint8_t*>(body.data());
  if (core::crc32_ieee(core::BytesView(data, body.size())) != stored) {
    return false;
  }
  line = body;
  return true;
}

bool parse_header_body(std::string_view body, ManifestHeader& h) {
  Cursor c{body};
  std::uint64_t runs = 0;
  std::uint64_t trace = 0;
  if (!c.lit("{\"type\":\"campaign\",\"version\":1,\"runs\":") ||
      !c.u64_dec(runs) || !c.lit(",\"base_seed\":") ||
      !c.quoted_u64_hex(h.base_seed) || !c.lit(",\"trace\":") ||
      !c.u64_dec(trace) || !c.lit(",\"invariants\":[")) {
    return false;
  }
  if (trace > static_cast<std::uint64_t>(TraceCapture::kAllRuns)) return false;
  h.runs = static_cast<std::size_t>(runs);
  h.trace = static_cast<int>(trace);
  h.invariants.clear();
  if (!c.peek(']')) {
    for (;;) {
      std::string name;
      if (!c.json_string(name)) return false;
      h.invariants.push_back(std::move(name));
      if (!c.peek(',')) break;
      ++c.pos;
    }
  }
  return c.lit("]") && c.done();
}

bool parse_run_body(std::string_view body, std::size_t& index,
                    RunOutcome& o) {
  Cursor c{body};
  std::uint64_t i = 0;
  std::uint64_t attempts = 0;
  std::string status;
  if (!c.lit("{\"type\":\"run\",\"i\":") || !c.u64_dec(i) ||
      !c.lit(",\"seed\":") || !c.quoted_u64_hex(o.seed) ||
      !c.lit(",\"status\":") || !c.json_string(status) ||
      !parse_run_status(status, o.status) || !c.lit(",\"attempts\":") ||
      !c.u64_dec(attempts) || !c.lit(",\"error\":") ||
      !c.json_string(o.error) || !c.lit(",\"metrics\":{")) {
    return false;
  }
  if (attempts == 0 || attempts > UINT32_MAX) return false;
  index = static_cast<std::size_t>(i);
  o.attempts = static_cast<std::uint32_t>(attempts);
  o.metrics.clear();
  if (!c.peek('}')) {
    for (;;) {
      std::string key;
      std::uint64_t bits = 0;
      if (!c.json_string(key) || !c.lit(":") || !c.quoted_u64_hex(bits)) {
        return false;
      }
      o.metrics.emplace(std::move(key), std::bit_cast<double>(bits));
      if (!c.peek(',')) break;
      ++c.pos;
    }
  }
  if (!c.lit("},\"violated\":[")) return false;
  o.violated.clear();
  if (!c.peek(']')) {
    for (;;) {
      std::string name;
      if (!c.json_string(name)) return false;
      o.violated.push_back(std::move(name));
      if (!c.peek(',')) break;
      ++c.pos;
    }
  }
  return c.lit("],\"trace\":") && c.json_string(o.trace) && c.done();
}

}  // namespace

std::string manifest_header_line(const ManifestHeader& h) {
  std::string body = "{\"type\":\"campaign\",\"version\":1,\"runs\":";
  body += std::to_string(h.runs);
  body += ",\"base_seed\":";
  append_quoted_hex_u64(body, h.base_seed);
  body += ",\"trace\":";
  body += std::to_string(h.trace);
  body += ",\"invariants\":[";
  for (std::size_t i = 0; i < h.invariants.size(); ++i) {
    if (i != 0) body += ',';
    core::append_json_string(body, h.invariants[i]);
  }
  body += ']';
  return seal_line(std::move(body));
}

std::string manifest_run_line(std::size_t index, const RunOutcome& o) {
  std::string body = "{\"type\":\"run\",\"i\":";
  body += std::to_string(index);
  body += ",\"seed\":";
  append_quoted_hex_u64(body, o.seed);
  body += ",\"status\":\"";
  body += run_status_name(o.status);
  body += "\",\"attempts\":";
  body += std::to_string(o.attempts);
  body += ",\"error\":";
  core::append_json_string(body, o.error);
  body += ",\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : o.metrics) {
    if (!first) body += ',';
    first = false;
    core::append_json_string(body, key);
    body += ':';
    append_quoted_hex_u64(body, std::bit_cast<std::uint64_t>(value));
  }
  body += "},\"violated\":[";
  for (std::size_t i = 0; i < o.violated.size(); ++i) {
    if (i != 0) body += ',';
    core::append_json_string(body, o.violated[i]);
  }
  body += "],\"trace\":";
  core::append_json_string(body, o.trace);
  return seal_line(std::move(body));
}

ManifestData read_manifest(const std::string& path) {
  ManifestData data;
  std::ifstream in(path, std::ios::binary);
  if (!in) return data;
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string text = raw.str();

  std::size_t pos = 0;
  bool saw_header_line = false;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // Torn final line: the process died mid-write(2) or the file was
      // truncated. Drop it; the run it described will simply re-execute.
      ++data.dropped_lines;
      break;
    }
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;

    if (!saw_header_line) {
      saw_header_line = true;
      std::string_view body = line;
      if (!check_crc(body) || !parse_header_body(body, data.header)) {
        // No trustworthy header — nothing else in the file can be
        // attributed to a campaign, so the whole manifest is void.
        ++data.dropped_lines;
        return data;
      }
      data.header_ok = true;
      continue;
    }

    std::string_view body = line;
    std::size_t index = 0;
    RunOutcome o;
    if (!check_crc(body) || !parse_run_body(body, index, o) ||
        index >= data.header.runs) {
      ++data.dropped_lines;
      continue;
    }
    ++data.run_lines;
    data.outcomes.insert_or_assign(index, std::move(o));  // last line wins
  }
  return data;
}

// --- writer --------------------------------------------------------------

ManifestWriter::~ManifestWriter() { close(); }

bool ManifestWriter::open_fresh(const std::string& path,
                                const ManifestHeader& header) {
  close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return false;
  core::MutexLock lock(mu_);
  fd_ = fd;
  unsynced_ = 0;
  write_line(manifest_header_line(header));
  // The header is the file's identity — make it durable immediately so a
  // crash after the first run can never leave run lines under no header.
  if (fd_ >= 0) ::fsync(fd_);
  return fd_ >= 0;
}

bool ManifestWriter::open_append(const std::string& path,
                                 const ManifestHeader& expected) {
  // Re-read right before opening: a zero-byte file, a header-only file
  // with the wrong identity, or a header swapped in since the caller last
  // looked must all be refused rather than silently adopted.
  const ManifestData data = read_manifest(path);
  if (!data.header_ok || !(data.header == expected)) return false;
  close();
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) return false;
  // A crash can leave a torn final line with no newline. Terminate it
  // before appending, or the first new record would concatenate onto the
  // fragment and be lost with it (both would fail the CRC).
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size > 0) {
    char last = '\n';
    if (::pread(fd, &last, 1, size - 1) == 1 && last != '\n') {
      const char nl = '\n';
      if (::write(fd, &nl, 1) != 1) {
        ::close(fd);
        return false;
      }
    }
  }
  core::MutexLock lock(mu_);
  fd_ = fd;
  unsynced_ = 0;
  return true;
}

bool ManifestWriter::valid() const {
  core::MutexLock lock(mu_);
  return fd_ >= 0;
}

void ManifestWriter::append(std::size_t index, const RunOutcome& o) {
  // Build off-lock: serialization is the expensive part and needs no
  // shared state. The single write(2) under the lock keeps lines whole.
  std::string line = manifest_run_line(index, o);
  core::MutexLock lock(mu_);
  if (fd_ < 0) return;
  write_line(line);
  if (++unsynced_ >= kFsyncEvery && fd_ >= 0) {
    ::fsync(fd_);
    unsynced_ = 0;
  }
}

void ManifestWriter::close() {
  core::MutexLock lock(mu_);
  if (fd_ < 0) return;
  ::fsync(fd_);
  ::close(fd_);
  fd_ = -1;
}

void ManifestWriter::write_line(const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Journal I/O failure must not abort the sweep it is protecting:
      // drop the journal and let the sweep finish unmanifested.
      ::close(fd_);
      fd_ = -1;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace avsec::fault
