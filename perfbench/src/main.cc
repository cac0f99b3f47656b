// perfbench_runner: runs one workload and prints its raw result document
// as one JSON object on stdout. Invoked by perfbench/run.py, which owns the
// metric definitions; run it directly only to debug a workload:
//
//   .bench_build/perfbench_runner --workload grid_join --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <string>

#include "nn/kernel_provider.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  auto args = Args::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench_runner: %s\n",
                 args.status().message().c_str());
    return 2;
  }
  const std::string workload = args.value().Str("workload");
  JsonObject out;
  out.Str("workload", workload)
      .Int("seed", args.value().Int("seed"))
      .Int("trace", args.value().Int("trace"))
      .Str("kernel_provider", dtt::nn::ActiveKernelProvider().name())
      .Str("build_type", PERFBENCH_BUILD_TYPE);
  int rc = 2;
  if (workload == "grid_join") {
    rc = RunGridJoin(args.value(), &out);
  } else if (workload == "serve_longtail") {
    rc = RunServeLongtail(args.value(), &out);
  } else if (workload == "serve_repeat") {
    rc = RunServeRepeat(args.value(), &out);
  } else {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  std::printf("%s\n", out.Render().c_str());
  return rc;
}
