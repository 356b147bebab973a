// powerbench — PowerPlay served from an in-process PowerPlayApp behind a
// real HttpServer on loopback, driven by seeded workloads.
//
//   powerbench --workload browse|sweep --seed N --seconds S --trace 0|1
//              --data DIR --spans FILE
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs one untraced
// and two traced phases of S/3 seconds each and reports the per-layer
// metrics.  DIR is scratch space for the run's stores (emptied first,
// removed afterwards); FILE receives the traced run's spans.  The last line of stdout is one JSON object.  Exit status: 0
// when every output checked out, 1 on a mismatch (the JSON still
// printed), 2 on an error, 3 when the run is invalid (nothing printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

using namespace powerbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "powerbench: %s\nusage: powerbench --workload browse|sweep "
               "--seed N --seconds S --trace 0|1 --data DIR --spans FILE\n",
               why);
  std::exit(2);
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--data") {
      options.data = value;
    } else if (arg == "--spans") {
      options.spans_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.data.empty() ||
      options.spans_out.empty()) {
    usage("--seed, --seconds, --trace, --data and --spans are required");
  }

  Report (*run)(const RunOptions&) = nullptr;
  if (workload == "browse") run = run_browse;
  if (workload == "sweep") run = run_sweep;
  if (run == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  Report report;
  try {
    fs::remove_all(options.data);
    fs::create_directories(options.data);
    report = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "powerbench: %s failed: %s\n", workload.c_str(), e.what());
    fs::remove_all(options.data);
    return 2;
  }
  fs::remove_all(options.data);
  if (!report.invalid.empty()) {
    std::fprintf(stderr, "powerbench: run invalid: %s\n", report.invalid.c_str());
    return 3;
  }
  print_json(report);
  return report.correct ? 0 : 1;
}
