// Benchmark entry point.
//
//   perfbench --workload <walk_established|walk_conn_churn|chain_setup>
//             --seed <n> --seconds <s>
//
// Prints diagnostics as "# key: value" lines, then one JSON object as the
// last line: {"correct", "attempted", "failed", "metrics"}.  The untraced
// binary reports the end-to-end metrics; perfbench_traced reports the
// per-layer ones.  Exits 0 only when the run's output checks passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<walk_established|walk_conn_churn|chain_setup> --seed <n> "
               "--seconds <s>\n",
               why);
  std::exit(2);
}

void print_result(const perfbench::RunResult& r) {
  for (const auto& [key, value] : r.notes) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const auto& [name, metric] : r.metrics) {
    if (!std::isfinite(metric.value)) finite = false;
    char value[64];
    std::snprintf(value, sizeof value, "%.12g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  json += r.correct && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) usage("bad --seconds");
    } else {
      usage("unknown argument");
    }
  }

  perfbench::RunResult result;
  if (workload == "walk_established") {
    result = perfbench::run_walk(options, false);
  } else if (workload == "walk_conn_churn") {
    result = perfbench::run_walk(options, true);
  } else if (workload == "chain_setup") {
    result = perfbench::run_chain_setup(options);
  } else {
    usage("unknown --workload");
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
