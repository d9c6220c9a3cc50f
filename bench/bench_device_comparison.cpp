// Device generalisation check: do the paper's findings survive a GPU
// upgrade? Re-runs the base-configuration comparison and the kernel-size
// crossover on the paper's Tesla K40c and on a GTX Titan X (Maxwell).
// The orderings — fbfft fastest at large kernels, cuDNN at small ones,
// Theano-fft slowest — should be device-independent; only absolute times
// shift with peak FLOPs and bandwidth.
#include <iostream>

#include "analysis/conv_runner.hpp"
#include "analysis/sweep.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;

void compare(const ConvConfig& cfg, const std::string& label) {
  const auto k40c = gpusim::tesla_k40c();
  const auto titan = gpusim::gtx_titan_x();
  Table table(label + " " + cfg.to_string() + ": K40c vs Titan X");
  table.header({"implementation", "K40c (ms)", "Titan X (ms)", "speedup"});
  for (const auto id : frameworks::all_frameworks()) {
    const auto a = evaluate(id, cfg, k40c);
    if (!a.supported) continue;
    const auto b = evaluate(id, cfg, titan);
    table.row({std::string(frameworks::to_string(id)),
               fmt(a.runtime_ms, 1), fmt(b.runtime_ms, 1),
               fmt(a.runtime_ms / b.runtime_ms, 2) + "x"});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Device comparison: the paper's experiment re-run on a newer "
               "GPU model.\nFindings should be ordering-stable; absolute "
               "times scale with the device.\n";
  compare(base_config(), "base");
  ConvConfig small_kernel = base_config();
  small_kernel.kernel = 3;
  compare(small_kernel, "small-kernel");
  ConvConfig large_kernel = base_config();
  large_kernel.kernel = 21;
  compare(large_kernel, "large-kernel");
  return 0;
}
