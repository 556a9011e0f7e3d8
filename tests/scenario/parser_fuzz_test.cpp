// Seeded mutation fuzzing of the .avsc front end. Every committed corpus
// file and every serve built-in is mutated on a fixed-seed core::Rng by
// bit flips, truncation and line splices from another spec. Properties:
// parse_scenario_text() and compile() never throw, a rejection names a
// line of the input, and every accepted spec round-trips through
// canonical_text() idempotently with the same compile verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/scenario/scenario.hpp"

#ifndef AVSEC_SCENARIO_CORPUS_DIR
#error "AVSEC_SCENARIO_CORPUS_DIR must point at the committed scenarios/"
#endif

namespace avsec::scenario {
namespace {

constexpr std::size_t kMutantsPerSeed = 128;

/// Corpus files in path order, then the built-in texts.
std::vector<std::string> seed_texts() {
  std::vector<std::string> paths;
  for (const auto& e :
       std::filesystem::directory_iterator(AVSEC_SCENARIO_CORPUS_DIR)) {
    if (e.path().extension() == ".avsc") paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    texts.push_back(buf.str());
  }
  for (const std::string_view t : builtin_spec_texts()) texts.emplace_back(t);
  return texts;
}

/// Lines of `text`, each keeping its '\n'.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    out.push_back(text.substr(start, end - start));
    start = end;
  }
  return out;
}

std::size_t pick(core::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next() % n);
}

/// One to four mutations of seeds[base].
std::string mutate(const std::vector<std::string>& seeds, std::size_t base,
                   core::Rng& rng) {
  std::string s = seeds[base];
  const std::size_t ops = 1 + pick(rng, 4);
  for (std::size_t op = 0; op < ops; ++op) {
    switch (pick(rng, 3)) {
      case 0:  // bit flip
        if (!s.empty()) {
          const std::size_t at = pick(rng, s.size());
          s[at] = static_cast<char>(s[at] ^ (1 << pick(rng, 8)));
        }
        break;
      case 1:  // truncation
        s.resize(pick(rng, s.size() + 1));
        break;
      default: {  // a line of another spec replaces or precedes one of ours
        const std::vector<std::string> donor =
            lines_of(seeds[(base + 1 + pick(rng, seeds.size() - 1)) %
                           seeds.size()]);
        std::vector<std::string> lines = lines_of(s);
        if (donor.empty()) break;
        const std::string& line = donor[pick(rng, donor.size())];
        const std::size_t at = pick(rng, lines.size() + 1);
        if (at < lines.size() && rng.chance(0.5)) {
          lines[at] = line;
        } else {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line);
        }
        s.clear();
        for (const std::string& l : lines) s += l;
        break;
      }
    }
  }
  return s;
}

TEST(ScenarioParserFuzz, MutantsNeverThrowAndAcceptedSpecsRoundTrip) {
  const std::vector<std::string> seeds = seed_texts();
  ASSERT_GE(seeds.size(), 63u);
  core::Rng rng(0x5EED'AF5CULL);
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t base = 0; base < seeds.size(); ++base) {
    for (std::size_t k = 0; k < kMutantsPerSeed; ++k) {
      const std::string text = mutate(seeds, base, rng);
      SCOPED_TRACE("mutant " + std::to_string(k) + " of seed " +
                   std::to_string(base) + ":\n" + text);
      ParseResult parsed;
      ASSERT_NO_THROW(parsed = parse_scenario_text(text, "mutant.avsc"));
      if (!parsed.ok) {
        ++rejected;
        const auto lines = static_cast<int>(lines_of(text).size());
        ASSERT_GE(parsed.error.line, 1) << parsed.error.to_string();
        ASSERT_LE(parsed.error.line, std::max(lines, 1))
            << parsed.error.to_string();
        continue;
      }
      ++accepted;
      CompileResult built;
      ASSERT_NO_THROW(built = compile(parsed.spec));

      const std::string canon = canonical_text(parsed.spec);
      ParseResult again;
      ASSERT_NO_THROW(again = parse_scenario_text(canon, "canonical.avsc"));
      ASSERT_TRUE(again.ok) << again.error.to_string() << "\n" << canon;
      ASSERT_EQ(canonical_text(again.spec), canon);
      ASSERT_EQ(compile(again.spec).ok, built.ok);
    }
  }
  // Both sides of the grammar must be exercised, or the run proves little.
  EXPECT_GE(accepted, seeds.size() * kMutantsPerSeed / 10);
  EXPECT_GE(rejected, seeds.size() * kMutantsPerSeed / 10);
}

}  // namespace
}  // namespace avsec::scenario
