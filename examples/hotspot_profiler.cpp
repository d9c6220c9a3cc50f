// Hotspot layer analysis on real hardware — the paper's §IV.A
// methodology run against this library's own CPU engines: average
// per-layer runtime over 10 training iterations, rolled up by layer
// type. The conclusion should match Fig. 2's: convolution dominates.
//
// Run:  ./hotspot_profiler [batch]
#include <iostream>

#include "analysis/layer_profiler.hpp"
#include "cli_args.hpp"
#include "nn/model_spec.hpp"
#include "obs/table.hpp"

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;
using obs::fmt_percent;

int main(int argc, char** argv) {
  std::size_t batch = 16;
  if (argc > 2 ||
      (argc == 2 &&
       !examples::parse_positive<std::size_t>(argv[1], "batch size", batch,
                                              4096))) {
    std::cerr << "usage: hotspot_profiler [batch]\n";
    return 2;
  }

  const auto spec = nn::lenet5(batch);
  auto net = spec.instantiate();
  Rng rng(3);
  net.initialize(rng);

  Tensor input(batch, 1, 32, 32);
  input.fill_uniform(rng);

  std::cout << "Profiling LeNet-5 (batch " << batch
            << ") over 10 real training iterations on the CPU engines — "
               "the paper's Fig. 2 methodology.\n";
  const auto profile = profile_network(net, input, 10);

  Table table("per-layer average runtime");
  table.header({"layer", "type", "forward (ms)", "backward (ms)",
                "share"});
  for (const auto& l : profile.layers) {
    table.row({l.name, l.type, fmt(l.forward_ms, 3), fmt(l.backward_ms, 3),
               fmt_percent(l.total_ms() / profile.total_ms)});
  }
  table.print(std::cout);

  Table rollup("share by layer type (cf. paper Fig. 2)");
  rollup.header({"type", "share"});
  for (const auto& [type, share] : profile.share_by_type()) {
    rollup.row({type, fmt_percent(share)});
  }
  rollup.print(std::cout);
  return 0;
}
