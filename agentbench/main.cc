// afbench: the repository benchmark's driver. Runs one workload in this
// process and prints its metrics, one per line with its unit, then a final
// JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   afbench --workload speculate|explore_paged|serve --seed N --seconds S
//           --trace 0|1 [--work-dir DIR] [--commit ID] [--tiny]
//           [--perturb-reference]
//
// Exit codes: 0 = measured and correct; 1 = a wrong answer or a failed
// recovery check (the result line still prints, with "correct": false);
// 2 = usage error; 3 = refused build (Debug, unoptimized, or sanitizer) or a
// workload that could not be set up.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "io/file_util.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "afbench: %s\nusage: afbench --workload speculate|explore_paged|serve "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--commit ID] "
               "[--tiny] [--perturb-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  agentbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--perturb-reference") {
      args.perturb_reference = true;
    } else {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        args.workload = v;
      } else if (arg == "--seed") {
        args.seed = std::strtoull(v, nullptr, 10);
      } else if (arg == "--seconds") {
        args.seconds = std::strtod(v, nullptr);
      } else if (arg == "--trace") {
        args.trace = std::string(v) == "1";
      } else if (arg == "--work-dir") {
        args.work_dir = v;
      } else if (arg == "--commit") {
        args.commit = v;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  std::string why;
  if (!agentbench::ReportableBuild(&why)) {
    std::fprintf(stderr, "afbench: refusing to report numbers: %s\n", why.c_str());
    return 3;
  }
  if (auto st = agentfirst::io::CreateDirectories(args.work_dir); !st.ok()) {
    std::fprintf(stderr, "afbench: work dir: %s\n", st.ToString().c_str());
    return 3;
  }

  agentbench::Report report;
  bool ran = false;
  if (args.workload == "speculate") {
    ran = agentbench::RunSpeculate(args, &report);
  } else if (args.workload == "explore_paged") {
    ran = agentbench::RunExplorePaged(args, &report);
  } else if (args.workload == "serve") {
    ran = agentbench::RunServe(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "afbench: workload %s could not be set up\n",
                 args.workload.c_str());
    return 3;
  }
  report.Print(args);
  return report.correct ? 0 : 1;
}
