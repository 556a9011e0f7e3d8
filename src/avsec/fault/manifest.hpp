// Campaign checkpoint manifests: a crash-tolerant newline-JSON journal of
// completed runs that lets an interrupted sweep resume without repeating
// finished work — and without perturbing the report's byte-identity.
//
// Format: one JSON object per line. The first line is the campaign header
// (run count, base seed, trace policy, invariant names); every subsequent
// line is one completed run's outcome. Each line carries a CRC-32 of its
// own body as the final field, so a line torn by a crash mid-write (or a
// file truncated at an arbitrary byte offset) is detected and dropped
// rather than misparsed. Doubles are serialized as their IEEE-754 bit
// patterns in hex: the round trip is bit-exact, which is what lets a
// resumed report compare `fault::identical` to an uninterrupted sweep.
//
// Writes are append-only: one write(2) per line on an O_APPEND fd, with
// an fsync every 8 lines and on close. Readers keep the last valid line
// per run index, so a re-executed run simply appends a superseding
// record — no in-place rewriting, ever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "avsec/core/sync.hpp"
#include "avsec/fault/campaign.hpp"

namespace avsec::fault {

/// Campaign identity recorded in the manifest's first line. resume()
/// refuses a manifest whose header does not match the campaign.
struct ManifestHeader {
  std::size_t runs = 0;
  std::uint64_t base_seed = 0;
  int trace = 0;  // TraceCapture as int (part of outcome identity)
  std::vector<std::string> invariants;  // names, registration order

  bool operator==(const ManifestHeader&) const = default;
};

/// Serializes the header to one newline-terminated manifest line.
std::string manifest_header_line(const ManifestHeader& h);

/// Serializes one completed run to one newline-terminated manifest line.
std::string manifest_run_line(std::size_t index, const RunOutcome& o);

/// Everything read_manifest() recovered from a (possibly torn) manifest.
struct ManifestData {
  /// False when the file is missing, empty, or its first line is not a
  /// valid header — the manifest contributes nothing and a fresh sweep
  /// should rewrite it.
  bool header_ok = false;
  ManifestHeader header;
  /// Last valid outcome per run index (a rerun's record supersedes).
  std::map<std::size_t, RunOutcome> outcomes;
  std::size_t run_lines = 0;      // valid run lines seen (incl. superseded)
  std::size_t dropped_lines = 0;  // torn / CRC-mismatched / unparseable
};

/// Reads a manifest, tolerating truncation at any byte offset: a final
/// line without its newline, a line failing its CRC, and any line that
/// does not parse are counted in dropped_lines and otherwise ignored.
ManifestData read_manifest(const std::string& path);

/// Append-only manifest journal. Thread-safe: parallel sweep workers call
/// append() concurrently; each line is built off-lock and written with a
/// single write(2), so concurrent appends interleave only at line
/// granularity on the O_APPEND fd.
class ManifestWriter {
 public:
  ManifestWriter() = default;
  ~ManifestWriter();
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;

  /// Truncates/creates `path` and writes the header line. False on I/O
  /// failure (the writer is left invalid; appends become no-ops).
  bool open_fresh(const std::string& path, const ManifestHeader& header);

  /// Opens `path` for appending run lines. Re-reads the manifest
  /// immediately before opening and refuses (returns false, writer stays
  /// invalid, file untouched) unless the on-disk header parses and equals
  /// `expected`: appending to a manifest whose header drifted since it was
  /// validated would adopt another campaign's journal. A torn final line
  /// is newline-terminated first. False on I/O failure too.
  bool open_append(const std::string& path, const ManifestHeader& expected);

  bool valid() const;

  /// Appends one completed run's line; fsyncs every 8 lines.
  void append(std::size_t index, const RunOutcome& o);

  /// Final fsync + close. Safe to call twice; the destructor calls it.
  void close();
 private:
  void write_line(const std::string& line) AVSEC_REQUIRES(mu_);

  mutable core::Mutex mu_;
  int fd_ AVSEC_GUARDED_BY(mu_) = -1;
  std::size_t unsynced_ AVSEC_GUARDED_BY(mu_) = 0;
};

}  // namespace avsec::fault
