// Manifest edge cases at the boundary between "empty", "header-only",
// and "somebody else's journal": a zero-byte file contributes nothing, a
// header-only manifest resumes as an all-rerun sweep, and the validated
// open_append overload refuses to adopt a manifest whose header does not
// match — it must never append this campaign's lines under another
// campaign's identity.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "avsec/core/crc.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/manifest.hpp"

namespace avsec::fault {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avsec_manifest_edge_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream raw;
  raw << in.rdbuf();
  return raw.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Metrics tiny_scenario(SimContext& /*ctx*/, std::uint64_t seed) {
  Metrics m;
  m["seed_mod"] = static_cast<double>(seed % 7);
  return m;
}

// Replaces `from` with `to` in a sealed manifest line and seals it again
// with a fresh CRC, so only the parser can refuse the result.
std::string reseal(std::string line, const std::string& from,
                   const std::string& to) {
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  line.replace(at, from.size(), to);
  std::string body = line.substr(0, line.size() - 21);  // ,"crc":"0x..."}\n
  const auto* data = reinterpret_cast<const std::uint8_t*>(body.data());
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ",\"crc\":\"0x%08x\"}\n",
                core::crc32_ieee(core::BytesView(data, body.size())));
  return body + suffix;
}

ManifestHeader header(std::size_t runs, std::uint64_t base_seed) {
  ManifestHeader h;
  h.runs = runs;
  h.base_seed = base_seed;
  h.trace = 0;
  h.invariants = {"inv-a", "inv-b"};
  return h;
}

TEST(ManifestEdge, ZeroByteFileIsVoidAndResumableAsFresh) {
  const std::string path = temp_path("zero_byte.jsonl");
  write_file(path, "");

  // The reader finds nothing trustworthy — not even a dropped line, since
  // there are no bytes to drop.
  const ManifestData data = read_manifest(path);
  EXPECT_FALSE(data.header_ok);
  EXPECT_EQ(data.outcomes.size(), 0u);
  EXPECT_EQ(data.run_lines, 0u);
  EXPECT_EQ(data.dropped_lines, 0u);

  // resume() degrades to a fresh sweep and rewrites a valid manifest.
  CampaignConfig cfg;
  cfg.runs = 4;
  cfg.base_seed = 99;
  ResumeStats stats;
  const auto report =
      Campaign(cfg).resume(tiny_scenario, path, &stats);
  EXPECT_EQ(report.outcomes.size(), 4u);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.reran, 4u);
  EXPECT_TRUE(read_manifest(path).header_ok);
}

TEST(ManifestEdge, HeaderOnlyManifestLoadsNothingAndRerunsEverything) {
  const std::string path = temp_path("header_only.jsonl");
  CampaignConfig cfg;
  cfg.runs = 3;
  cfg.base_seed = 7;
  Campaign campaign(cfg);
  write_file(path, manifest_header_line(
                       ManifestHeader{3, 7, 0, {}}));

  const ManifestData data = read_manifest(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.outcomes.size(), 0u);
  EXPECT_EQ(data.run_lines, 0u);
  EXPECT_EQ(data.dropped_lines, 0u);

  ResumeStats stats;
  const auto report = campaign.resume(tiny_scenario, path, &stats);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.reran, 3u);
  EXPECT_EQ(report.outcomes.size(), 3u);
  // The reruns were journaled into the same file: a second resume loads
  // everything.
  ResumeStats again;
  campaign.resume(tiny_scenario, path, &again);
  EXPECT_EQ(again.loaded, 3u);
  EXPECT_EQ(again.reran, 0u);
}

TEST(ManifestEdge, ValidatedOpenAppendAcceptsOnlyTheExactHeader) {
  const std::string path = temp_path("validated_ok.jsonl");
  const ManifestHeader h = header(5, 0xABCD);
  write_file(path, manifest_header_line(h));

  ManifestWriter writer;
  ASSERT_TRUE(writer.open_append(path, h));
  EXPECT_TRUE(writer.valid());
  RunOutcome o;
  o.seed = 42;
  o.status = RunStatus::kPassed;
  o.attempts = 1;
  writer.append(2, o);
  writer.close();

  const ManifestData data = read_manifest(path);
  ASSERT_TRUE(data.header_ok);
  ASSERT_EQ(data.outcomes.size(), 1u);
  EXPECT_EQ(data.outcomes.at(2).seed, 42u);
}

TEST(ManifestEdge, ValidatedOpenAppendRefusesMismatchedHeader) {
  const std::string path = temp_path("validated_mismatch.jsonl");
  write_file(path, manifest_header_line(header(5, 0xABCD)));
  const std::string before = read_file(path);

  // Every axis of campaign identity must be checked, not just presence.
  ManifestHeader wrong_runs = header(6, 0xABCD);
  ManifestHeader wrong_seed = header(5, 0xABCE);
  ManifestHeader wrong_invariants = header(5, 0xABCD);
  wrong_invariants.invariants = {"inv-a"};
  ManifestHeader wrong_trace = header(5, 0xABCD);
  wrong_trace.trace = 1;

  for (const ManifestHeader& expected :
       {wrong_runs, wrong_seed, wrong_invariants, wrong_trace}) {
    ManifestWriter writer;
    EXPECT_FALSE(writer.open_append(path, expected));
    EXPECT_FALSE(writer.valid());
    // A refused open must not touch the file — not even the torn-line
    // newline repair the unvalidated overload performs.
    EXPECT_EQ(read_file(path), before);
  }
}

TEST(ManifestEdge, ValidatedOpenAppendRefusesVoidManifests) {
  const ManifestHeader h = header(2, 1);

  // Missing file.
  const std::string missing = temp_path("validated_missing.jsonl");
  std::remove(missing.c_str());
  ManifestWriter w1;
  EXPECT_FALSE(w1.open_append(missing, h));
  EXPECT_FALSE(w1.valid());

  // Zero-byte file.
  const std::string empty = temp_path("validated_empty.jsonl");
  write_file(empty, "");
  ManifestWriter w2;
  EXPECT_FALSE(w2.open_append(empty, h));
  EXPECT_FALSE(w2.valid());

  // Garbage header.
  const std::string garbage = temp_path("validated_garbage.jsonl");
  write_file(garbage, "not a manifest header\n");
  ManifestWriter w3;
  EXPECT_FALSE(w3.open_append(garbage, h));
  EXPECT_FALSE(w3.valid());
}

TEST(ManifestEdge, OutOfRangeNumbersAreDroppedNotWrapped) {
  RunOutcome o;
  o.seed = 5;
  o.attempts = 1;
  const std::string run = manifest_run_line(1, o);
  const std::string head = manifest_header_line(header(4, 3));

  // Each crafted line carries a valid CRC; each would once have loaded:
  // the index wrapped to run 0, the attempts narrowed to 0.
  const std::string path = temp_path("out_of_range.jsonl");
  write_file(path,
             head + run +
                 reseal(run, "\"i\":1,", "\"i\":18446744073709551616,") +
                 reseal(run, "\"attempts\":1,", "\"attempts\":4294967296,") +
                 reseal(run, "\"attempts\":1,", "\"attempts\":0,"));
  const ManifestData data = read_manifest(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.run_lines, 1u);
  EXPECT_EQ(data.dropped_lines, 3u);
  ASSERT_EQ(data.outcomes.size(), 1u);
  EXPECT_EQ(data.outcomes.at(1).attempts, 1u);

  // A header outside the trace-capture range, or with a run count that
  // overflows, voids the whole manifest.
  for (const std::string& bad :
       {reseal(head, "\"trace\":0,", "\"trace\":3,"),
        reseal(head, "\"runs\":4,", "\"runs\":18446744073709551620,")}) {
    write_file(path, bad + run);
    const ManifestData void_data = read_manifest(path);
    EXPECT_FALSE(void_data.header_ok) << bad;
    EXPECT_EQ(void_data.dropped_lines, 1u) << bad;
    EXPECT_TRUE(void_data.outcomes.empty()) << bad;
  }
}

}  // namespace
}  // namespace avsec::fault
