// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// All four flags are required. NAME is sim-underload, sim-overload,
// serve-backlog or serve-paced (see perfbench/README.md); S is the run
// length, BENCHMARK.json's run_seconds. With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 the per-layer ones.
// Output-check failures go to stderr. The last line of stdout is the
// result:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {NAME:
//    {"value": V, "unit": U}, ...}}

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.h"

namespace {

using perfbench::RunResult;
using perfbench::RunSettings;
using perfbench::Workload;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim-underload|sim-overload|"
               "serve-backlog|serve-paced --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseWorkload(std::string_view s, Workload* out) {
  if (s == "sim-underload") {
    *out = Workload::kSimUnderload;
  } else if (s == "sim-overload") {
    *out = Workload::kSimOverload;
  } else if (s == "serve-backlog") {
    *out = Workload::kServeBacklog;
  } else if (s == "serve-paced") {
    *out = Workload::kServePaced;
  } else {
    return false;
  }
  return true;
}

template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

/// Shortest decimal that reads back as exactly `v`.
std::string Number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void PrintResult(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.check_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunSettings settings;
  settings.start_ns = perfbench::NowNs();
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &settings.workload)) {
        return Usage("unknown workload");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &settings.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &settings.seconds) || !(settings.seconds > 0) ||
          settings.seconds > 3600) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseNumber(value, &trace) || (trace != 0 && trace != 1)) {
        return Usage("bad --trace");
      }
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || trace == -1) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  settings.trace = trace == 1;

  const bool sim = settings.workload == Workload::kSimUnderload ||
                   settings.workload == Workload::kSimOverload;
  const RunResult result = sim ? perfbench::RunSimWorkload(settings)
                               : perfbench::RunServeWorkload(settings);
  for (const std::string& f : result.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  PrintResult(result);
  return 0;
}
