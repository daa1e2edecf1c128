// caqe_perfbench: runs one named workload of the end-to-end benchmark and
// prints its metrics as the last line of standard output.
//
//   caqe_perfbench --workload serve-churn|serve-heavy|batch-large
//                  --seed N --seconds S --trace 0|1 [--out_dir DIR]
//
// Flags take "--key value" or "--key=value". --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
// run. The exit code is non-zero when an output check fails (the result line
// then says "correct": false) or the arguments are invalid.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunArgs* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return false;
    }
  }
  for (const auto& [key, value] : flags) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "out_dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Runs the named workload; false when the name is unknown.
bool RunNamedWorkload(const perfbench::RunArgs& args,
                      perfbench::RunResult* result) {
  if (args.workload == "serve-churn") {
    *result = perfbench::RunServe(args, perfbench::ServeChurnConfig());
  } else if (args.workload == "serve-heavy") {
    *result = perfbench::RunServe(args, perfbench::ServeHeavyConfig());
  } else if (args.workload == "batch-large") {
    *result = perfbench::RunBatch(args, perfbench::BatchLargeConfig());
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  perfbench::RunResult result;
  if (!ParseArgs(argc, argv, &args) ||
      !RunNamedWorkload(args, &result)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve-churn|serve-heavy|batch-large "
                 "--seed N --seconds S --trace 0|1 [--out_dir DIR]\n",
                 argv[0]);
    return 2;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "output check failed: %s\n", error.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result, args.trace).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
