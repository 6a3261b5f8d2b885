// e2ebench: one seeded end-to-end benchmark run of the pascalr library.
//
//   e2ebench --workload olap_n10k|adhoc_n100|serving_n1k --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]
//
// Prints human-readable lines, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}; untraced runs report the
// end-to-end metrics, traced runs the per-layer metrics (README.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench --workload olap_n10k|adhoc_n100|serving_n1k "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions o;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload != "olap_n10k" && o.workload != "adhoc_n100" && o.workload != "serving_n1k") {
    Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");

  // Same seed, byte-identical statement stream: generate it twice.
  const std::string stream = e2e::StreamBytes(o.workload, o.seed, o.seconds);
  const bool deterministic = stream == e2e::StreamBytes(o.workload, o.seed, o.seconds);
  std::printf("meta: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
              "\"trace\": %d, \"stream_fnv1a\": \"%016llx\"}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              std::thread::hardware_concurrency(), E2E_COMPILER, E2E_BUILD_TYPE,
              commit.c_str(), o.trace ? 1 : 0,
              static_cast<unsigned long long>(Fnv1a(stream)));
  std::fflush(stdout);

  e2e::RunReport report = o.workload == "olap_n10k"    ? e2e::RunOlap(o)
                          : o.workload == "adhoc_n100" ? e2e::RunAdhoc(o)
                                                       : e2e::RunServing(o);
  if (!deterministic) {
    report.correct = false;
    report.notes.push_back("statement stream differs between two generations");
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("error_rate: %.6f\n", static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted ? report.attempted : 1));
  for (const auto& [name, value] : report.metrics) {
    std::printf("%-40s %.6g %s\n", name.c_str(), value.first, value.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", name.c_str(),
                value.first, value.second.c_str());
  }
  std::printf("}}\n");
  return 0;
}
