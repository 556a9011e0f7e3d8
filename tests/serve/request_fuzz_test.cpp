// Seeded mutation fuzzing of serve::parse_request. The request lines of
// request_test, the golden stream and the CI serve batch are mutated on a
// fixed-seed core::Rng by bit flips, truncation and splices from another
// line. Properties: the parser never throws, every rejection names a byte
// of the input, and every accepted mutant, served by an in-process Server
// over the built-in catalog, gets a reply that render_reply() renders.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/scenario/catalog.hpp"
#include "avsec/serve/request.hpp"
#include "avsec/serve/server.hpp"

namespace avsec::serve {
namespace {

constexpr std::size_t kMutantsPerSeed = 256;

const std::vector<std::string>& seed_lines() {
  static const std::vector<std::string> lines = {
      // request_test
      R"({"scenario":"ivn-can","seeds":[1, 2,3],"deadline_ms":50,)"
      R"("max_events":1000,"trace":true})",
      R"({"scenario":"x"})",
      R"({"scenario":"x","future_knob":"v","flags":[1,2],"n":-3})",
      R"({"scenario":"x"} trailing)",
      R"({"scenario":"x","max_events":-1})",
      R"({"scenario":"poison-crash","seeds":[18446744073709551616]})",
      R"({"scenario":"x","deadline_ms":9223372036854775807})",
      R"({"scenario":"x","seeds":[18446744073709551615],)"
      R"("max_events":18446744073709551615,"deadline_ms":0})",
      R"({"scenario": 42})",
      // the golden stream and the CI serve batch
      R"({"scenario":"ivn-can","seeds":[1,2,3]})",
      R"({"scenario":"heartbeat-net","seeds":[7]})",
      R"({"scenario":"poison-crash","seeds":[5]})",
      R"({"scenario":"secure-uplink","seeds":[1]})",
      R"({"scenario":"busy-loop","seeds":[1]})",
      R"({"scenario":"ivn-can","seeds":[4],"deadline_ms":1})",
      R"({"scenario":"no-such-scenario","seeds":[1]})",
  };
  return lines;
}

std::size_t pick(core::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next() % n);
}

/// `line` cut after every ',': splicing whole pieces keeps many mutants
/// well-formed, so they reach the server.
std::vector<std::string> pieces_of(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < line.size()) {
    const std::size_t comma = line.find(',', start);
    const std::size_t end = comma == std::string::npos ? line.size() : comma + 1;
    out.push_back(line.substr(start, end - start));
    start = end;
  }
  return out;
}

/// One or two mutations of seeds[base]: the request grammar is strict
/// enough that more leave almost nothing to accept.
std::string mutate(const std::vector<std::string>& seeds, std::size_t base,
                   core::Rng& rng) {
  std::string s = seeds[base];
  const std::size_t ops = 1 + pick(rng, 2);
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
      default: {  // a piece of another line replaces or precedes one of ours
        const std::vector<std::string> donor = pieces_of(
            seeds[(base + 1 + pick(rng, seeds.size() - 1)) % seeds.size()]);
        std::vector<std::string> pieces = pieces_of(s);
        const std::string& piece = donor[pick(rng, donor.size())];
        const std::size_t at = pick(rng, pieces.size() + 1);
        if (at < pieces.size() && rng.chance(0.5)) {
          pieces[at] = piece;
        } else {
          pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(at),
                        piece);
        }
        s.clear();
        for (const std::string& p : pieces) s += p;
        break;
      }
    }
  }
  return s;
}

/// True when `error` names a byte ("... at byte N") inside `line`.
bool names_a_byte(const std::string& error, const std::string& line) {
  const std::size_t at = error.rfind("at byte ");
  if (at == std::string::npos) return false;
  const std::string digits = error.substr(at + 8);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  return std::strtoull(digits.c_str(), nullptr, 10) <= line.size();
}

TEST(ServeRequestFuzz, MutantsNeverThrowAndAcceptedRequestsRender) {
  const std::vector<std::string>& seeds = seed_lines();
  ServerConfig config;
  config.ladder.escalate_polls = 1'000'000;  // always full scale
  Server server(scenario::serve_catalog(), config);
  ServeClient client(server);
  core::Rng rng(0x5E4E'F022ULL);
  std::size_t accepted = 0, rejected = 0, served = 0;
  for (std::size_t base = 0; base < seeds.size(); ++base) {
    for (std::size_t k = 0; k < kMutantsPerSeed; ++k) {
      const std::string line = mutate(seeds, base, rng);
      SCOPED_TRACE("mutant " + std::to_string(k) + " of seed " +
                   std::to_string(base) + ": " + line);
      Request req;
      std::string error;
      bool ok = false;
      ASSERT_NO_THROW(ok = parse_request(line, req, error));
      if (!ok) {
        ++rejected;
        ASSERT_TRUE(names_a_byte(error, line)) << error;
        continue;
      }
      ++accepted;
      ASSERT_TRUE(error.empty()) << error;
      Reply reply;
      ASSERT_NO_THROW(reply = client.call(std::move(req)));
      std::string rendered;
      ASSERT_NO_THROW(rendered = render_reply(reply));
      ASSERT_FALSE(rendered.empty());
      if (reply.status != ReplyStatus::kRejected) ++served;  // it ran
    }
  }
  // Both sides of the grammar, and the server behind it, must be
  // exercised, or the run proves little.
  const std::size_t mutants = seeds.size() * kMutantsPerSeed;
  EXPECT_GE(accepted, mutants / 20);
  EXPECT_GE(rejected, mutants / 10);
  EXPECT_GE(served, mutants / 100);
}

}  // namespace
}  // namespace avsec::serve
