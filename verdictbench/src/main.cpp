// verdictbench: the PUFatt verdict benchmark.
//
//   verdictbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (see common.cpp for the table and README.md for why
// each exists), checks every verdict it produced, prints one
// `metric <name> = <value> <unit>` line per metric and, last, one JSON
// object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// --trace 0 reports the end-to-end metrics with no tracer attached;
// --trace 1 reports the per-layer metrics.  Exit code 0 only when every
// correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VB_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VB_SANITIZED 1
#endif
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "verdictbench: %s\nusage: verdictbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 64;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
#ifdef VB_SANITIZED
  std::fprintf(stderr, "verdictbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  verdictbench::RunOptions options;
  std::uint64_t trace = 0, seed = 0, seconds = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage("missing flag value");
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 600) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace");
    } else {
      return usage("unknown flag");
    }
    ++i;
  }
  const auto* spec = verdictbench::find_workload(options.workload);
  if (spec == nullptr) return usage("unknown --workload");
  if (!have_seed || !have_seconds) return usage("--seed and --seconds are required");
  options.seed = seed;
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  verdictbench::RunResult result;
  try {
    result = spec->wire ? verdictbench::run_wire(options, *spec)
                        : verdictbench::run_store_crp(options, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verdictbench: %s\n", e.what());
    return 1;
  }
  for (const auto& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  result.metrics.print_lines();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.to_json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
