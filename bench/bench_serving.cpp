// Serving micro-benchmark: closed-loop throughput vs. the dynamic
// batching size trigger (docs/SERVING.md).
//
// A fixed pool of closed-loop clients (each submits, waits, submits
// again) drives one InferenceServer per max_batch setting. With
// max_batch = 1 every request pays a full forward; as the trigger grows
// the workers amortise per-forward overheads (dispatch, planner, GEMM
// setup) across coalesced requests, which is the mechanism behind the
// paper's batch-size throughput curves — here observed end-to-end
// through the queue rather than on a bare kernel.
//
// Exports the BENCH_serving_micro table (stem `serving_micro`; schema
// in docs/METRICS.md).
#include <cstddef>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/timer.hpp"
#include "nn/model_spec.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"
#include "serve/server.hpp"

namespace {

using namespace gpucnn;
using obs::fmt;
using obs::Table;

struct Measurement {
  std::size_t max_batch = 0;
  std::int64_t requests = 0;
  double elapsed_ms = 0.0;
  double throughput_rps = 0.0;
  double mean_batch = 0.0;
  double p99_ms = 0.0;
};

Measurement drive(std::size_t max_batch, std::size_t clients,
                  std::size_t per_client, const Tensor& image) {
  const auto spec = nn::lenet5(1);
  serve::ServerOptions options;
  options.workers = 2;
  // FFT conv pays its filter transform once per forward, so per-image
  // cost falls as batches grow — the effect this bench quantifies.
  const auto engine = conv::Strategy::kFft;
  // The delay budget only matters when fewer than max_batch requests
  // are waiting; closed-loop clients keep the queue primed, so batches
  // close on size and the budget is just a bound on tail latency.
  options.batch = {max_batch, 1000};
  options.input = {1, spec.layers.front().input.c,
                   spec.layers.front().input.h,
                   spec.layers.front().input.w};
  serve::InferenceServer server(
      [&spec, engine] { return spec.instantiate(engine); }, options);

  Timer wall;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < per_client; ++i) {
        server.submit(image).get();
      }
    });
  }
  for (auto& client : pool) client.join();
  const double elapsed_ms = wall.elapsed_ms();
  server.shutdown();

  const auto stats = server.stats();
  Measurement m;
  m.max_batch = max_batch;
  m.requests = stats.completed;
  m.elapsed_ms = elapsed_ms;
  m.throughput_rps =
      static_cast<double>(stats.completed) / (elapsed_ms / 1000.0);
  m.mean_batch = stats.mean_batch;
  m.p99_ms = stats.latency.p99_us / 1000.0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_serving");
  exporter.annotate("serve", "bench");
  exporter.annotate("model", "lenet5");

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 24;

  Rng rng(7);
  Tensor image(1, 1, 32, 32);
  image.fill_uniform(rng, 0.0F, 1.0F);

  std::cout << "Closed-loop serving throughput on LeNet-5: " << kClients
            << " clients x " << kPerClient
            << " requests per max_batch setting, 2 workers.\n";
  Table table(
      "BENCH_serving_micro: closed-loop throughput vs. batch trigger");
  table.header({"max batch", "requests", "elapsed (ms)",
                "throughput (rps)", "mean batch", "p99 (ms)"});
  double base_rps = 0.0;
  for (const std::size_t max_batch : {1UL, 2UL, 4UL, 8UL}) {
    const Measurement m = drive(max_batch, kClients, kPerClient, image);
    if (max_batch == 1) base_rps = m.throughput_rps;
    table.row({std::to_string(m.max_batch), std::to_string(m.requests),
               fmt(m.elapsed_ms, 1), fmt(m.throughput_rps, 1),
               fmt(m.mean_batch, 2), fmt(m.p99_ms, 3)});
    std::cout << "  max_batch " << m.max_batch << ": "
              << fmt(m.throughput_rps, 1) << " rps ("
              << fmt(m.throughput_rps / base_rps, 2) << "x batch-1), "
              << "mean batch " << fmt(m.mean_batch, 2) << ", p99 "
              << fmt(m.p99_ms, 2) << " ms\n";
  }
  table.print(std::cout);
  obs::export_table(exporter, table, "serving_micro");
  return 0;
}
