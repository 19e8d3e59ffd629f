// perfbench: runs one named workload of the repository benchmark and
// prints its result as the last stdout line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// this workload exercises; run.py checks both against BENCHMARK.json and
// adds peak_rss_mb.  Exit status 0 means the run completed; a failed
// correctness check still exits 0 with "correct": false.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;

std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s(line);
    if (s.rfind("model name", 0) == 0) {
      const size_t colon = s.find(':');
      model = s.substr(colon + 2);
      if (!model.empty() && model.back() == '\n') model.pop_back();
      break;
    }
  }
  std::fclose(f);
  return model;
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') args.seconds = 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      args.trace = val == "1";
    } else if (key == "--workdir") {
      args.workdir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (!have_seed) return Usage("--seed must be a whole number");
  if (!(args.seconds >= 1 && args.seconds <= 600)) {
    return Usage("--seconds must be within [1, 600]");
  }
  if (args.workdir.empty()) return Usage("--workdir is required");

  // Timings from unoptimized or instrumented builds mean nothing.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::cerr << "perfbench: refusing build type '" << build_type
              << "' (need Release or RelWithDebInfo)\n";
    return 3;
  }
  if (sanitizer != "none") {
    std::cerr << "perfbench: refusing " << sanitizer << "-sanitizer build\n";
    return 3;
  }

  Outcome (*run)(const perfbench::RunArgs&) = nullptr;
  const std::string& w = args.workload;
  if (w == "batch_quest") {
    run = perfbench::RunBatch;
  } else if (w == "stream_window") {
    run = perfbench::RunStream;
  } else if (w == "serve_mixed" || w == "serve_replay") {
    run = perfbench::RunServe;
  } else if (w == "dualize_planted") {
    run = perfbench::RunDualize;
  } else {
    return Usage(("unknown workload '" + w + "'").c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << args.workdir << "\n";
    return 1;
  }

  const Outcome out = run(args);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d samples=%zu "
              "build=%s sanitizer=%s nproc=%u cpu=%s\n",
              w.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, out.samples,
              build_type.c_str(),
              sanitizer.c_str(), std::thread::hardware_concurrency(),
              CpuModel().c_str());
  std::printf("%s\n", perfbench::ResultJson(out).c_str());
  return 0;
}
