// avsec-serve daemon: newline-JSON front-end over serve::Server.
//
// Reads one request object per stdin line, writes one reply object per
// line to stdout, in request order:
//
//   $ printf '%s\n' '{"scenario":"ivn-can","seeds":[1,2,3]}' |
//       example_avsec_serve --workers 2
//
// Default mode reads ALL of stdin first and submits it as one batch, so
// same-scenario requests with equal deadlines/budgets coalesce into one
// batched sweep; --stream submits and answers line by line instead.
// Replies always come back in input order either way, and rendered
// replies are byte-identical at any --workers value (the determinism
// contract; see DESIGN.md §14). EOF drains in-flight work, then prints a
// stats summary to stderr.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "avsec/fault/cli.hpp"
#include "avsec/scenario/catalog.hpp"
#include "avsec/scenario/corpus.hpp"
#include "avsec/serve/serve.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--queue N] [--corpus DIR] "
               "[--stream] [--list]\n"
               "  --workers N  worker threads, at most 256 (default 2)\n"
               "  --queue N    bounded job-queue capacity (default 32)\n"
               "  --corpus DIR also serve every .avsc scenario under DIR\n"
               "  --stream     answer each line before reading the next\n"
               "               (default: batch all of stdin, coalescing\n"
               "               same-scenario requests into one sweep)\n"
               "  --list       print the scenario catalog and exit\n",
               argv0);
}

// A malformed line never reaches the server; it still gets a structured
// one-line answer so the output stays line-aligned with the input.
std::string render_parse_error(const std::string& error) {
  avsec::serve::Reply r;
  r.status = avsec::serve::ReplyStatus::kRejected;
  r.detail = "parse error: " + error;
  return avsec::serve::render_reply(r);
}

}  // namespace

int main(int argc, char** argv) {
  avsec::serve::ServerConfig config;
  bool stream = false;
  bool list = false;
  std::string corpus_dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::size_t* count = std::strcmp(arg, "--workers") == 0 ? &config.workers
                         : std::strcmp(arg, "--queue") == 0
                             ? &config.queue_capacity
                             : nullptr;
    if (count != nullptr) {
      std::uint64_t value = 0;
      if (i + 1 >= argc || !avsec::fault::cli::parse_u64(argv[++i], value)) {
        std::fprintf(stderr, "%s: %s needs a non-negative integer\n",
                     argv[0], arg);
        usage(argv[0]);
        return 2;
      }
      if (count == &config.workers &&
          value > avsec::fault::cli::kMaxWorkers) {
        std::fprintf(stderr, "%s: --workers takes at most %zu\n", argv[0],
                     avsec::fault::cli::kMaxWorkers);
        usage(argv[0]);
        return 2;
      }
      *count = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--corpus") == 0 && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (std::strcmp(arg, "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else {
      usage(argv[0]);
      return std::strcmp(arg, "--help") == 0 ? 0 : 2;
    }
  }

  auto registry = avsec::scenario::serve_catalog();
  if (!corpus_dir.empty()) {
    // Corpus scenarios join the catalog by spec name: any load error is
    // fatal up front, not a kRejected surprise at request time.
    const avsec::scenario::Corpus corpus =
        avsec::scenario::load_corpus(corpus_dir);
    for (const std::string& err : corpus.errors) {
      std::fprintf(stderr, "avsec-serve: corpus: %s\n", err.c_str());
    }
    if (!corpus.ok()) return 2;
    avsec::scenario::register_corpus(corpus, registry);
  }

  if (list) {
    for (const std::string& name : registry.names()) {
      const avsec::serve::Scenario* s = registry.find(name);
      std::printf("%-32s %s\n", name.c_str(), s->description.c_str());
    }
    return 0;
  }

  avsec::serve::Server server(std::move(registry), config);

  std::string line;
  if (stream) {
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      avsec::serve::Request req;
      std::string error;
      if (!avsec::serve::parse_request(line, req, error)) {
        std::cout << render_parse_error(error) << '\n' << std::flush;
        continue;
      }
      const avsec::serve::Reply reply =
          server.wait(server.submit(std::move(req)));
      std::cout << avsec::serve::render_reply(reply) << '\n' << std::flush;
    }
  } else {
    // Batch mode: a line is either a parsed request (index into `reqs`)
    // or a ready-made parse-error reply; outputs keep input order.
    struct Line {
      std::size_t req_index = 0;
      std::string error_reply;  // non-empty: emit this instead
    };
    std::vector<Line> lines;
    std::vector<avsec::serve::Request> reqs;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      Line entry;
      avsec::serve::Request req;
      std::string error;
      if (avsec::serve::parse_request(line, req, error)) {
        entry.req_index = reqs.size();
        reqs.push_back(std::move(req));
      } else {
        entry.error_reply = render_parse_error(error);
      }
      lines.push_back(std::move(entry));
    }
    const std::vector<std::uint64_t> tickets =
        server.submit_batch(std::move(reqs));
    for (const Line& entry : lines) {
      if (!entry.error_reply.empty()) {
        std::cout << entry.error_reply << '\n';
      } else {
        std::cout << avsec::serve::render_reply(
                         server.wait(tickets[entry.req_index]))
                  << '\n';
      }
    }
    std::cout << std::flush;
  }

  server.shutdown();
  const avsec::serve::ServerStats s = server.stats();
  std::fprintf(stderr,
               "avsec-serve: submitted=%llu accepted=%llu ok=%llu "
               "degraded=%llu quarantined=%llu expired=%llu "
               "rejected=%llu infeasible=%llu overloaded=%llu shed=%llu "
               "retried=%llu workers_replaced=%llu\n",
               static_cast<unsigned long long>(s.submitted),
               static_cast<unsigned long long>(s.accepted),
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.degraded),
               static_cast<unsigned long long>(s.quarantined),
               static_cast<unsigned long long>(s.expired),
               static_cast<unsigned long long>(s.rejected_unknown),
               static_cast<unsigned long long>(s.rejected_infeasible),
               static_cast<unsigned long long>(s.rejected_overloaded),
               static_cast<unsigned long long>(s.shed),
               static_cast<unsigned long long>(s.runs_retried),
               static_cast<unsigned long long>(s.workers_replaced));
  return 0;
}
