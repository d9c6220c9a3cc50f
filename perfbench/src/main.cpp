// Benchmark harness of the real CPU executor. One workload per process:
//
//   perfbench --workload googlenet-b1|googlenet-train-b4|lenet-int8-serve
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run measured; run.py selects the end-to-end or per-layer
// set named in BENCHMARK.json. The full result, with notes, and in
// trace mode the Chrome trace, are written under DIR.
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "common.hpp"

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--out") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) try {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--out DIR]\n";
    return 2;
  }
  using Runner = int (*)(const Args&, Result&);
  Runner runner = nullptr;
  if (args.workload == "googlenet-b1") runner = run_googlenet_b1;
  if (args.workload == "googlenet-train-b4") runner = run_googlenet_train;
  if (args.workload == "lenet-int8-serve") runner = run_lenet_int8_serve;
  if (runner == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  Result r;
  const auto [steal0, total0] = host_cpu_ticks();
  calibrate(r);
  reset_peak_rss();
  const int rc = runner(args, r);
  if (rc != 0) return rc;
  const auto [steal1, total1] = host_cpu_ticks();
  r.notes["host.steal_pct"] =
      format_g(100.0 * share(steal1 - steal0, total1 - total0));
  const std::string trace = write_outputs(args, r);
  if (!trace.empty()) std::cerr << "perfbench: trace written to " << trace << "\n";
  print_result(r);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << "\n";
  return 1;
}
