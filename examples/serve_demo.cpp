// Serving demo: LeNet-5 from the model zoo behind the InferenceServer
// (docs/SERVING.md).
//
// Four client threads submit single synthetic digits concurrently; the
// server coalesces them into dynamic batches executed by two model
// instances whose weights alias one shared prototype. Every response is
// checked against the prototype's own single-image forward, so the demo
// doubles as an end-to-end correctness proof of batching + weight
// sharing + the planned-forward activation arena.
//
// Run:  ./serve_demo [requests-per-client]
#include <atomic>
#include <cstddef>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "core/tensor.hpp"
#include "core/timer.hpp"
#include "nn/model_spec.hpp"
#include "nn/synthetic_data.hpp"
#include "obs/table.hpp"
#include "serve/server.hpp"

using namespace gpucnn;
using obs::fmt;

int main(int argc, char** argv) {
  std::size_t per_client = 16;
  if (argc > 1 &&
      !examples::parse_positive(argv[1], "requests-per-client", per_client,
                                std::size_t{10'000})) {
    return 2;
  }
  constexpr std::size_t kClients = 4;

  const auto spec = nn::lenet5(1);
  serve::ServerOptions options;
  options.workers = 2;
  options.batch = {8, 2000};
  options.input = {1, spec.layers.front().input.c,
                   spec.layers.front().input.h,
                   spec.layers.front().input.w};

  std::cout << "serve_demo: LeNet-5 (" << spec.parameter_count()
            << " parameters) behind " << options.workers
            << " workers, max_batch " << options.batch.max_batch
            << ", max delay " << options.batch.max_delay_us << " us; "
            << kClients << " clients x " << per_client << " requests\n";

  serve::InferenceServer server(
      [&spec] { return spec.instantiate(); }, options);

  // One synthetic digit per client, drawn up front so the concurrent
  // phase is pure submit/response traffic.
  nn::SyntheticDataset data(/*classes=*/10, /*channels=*/1,
                            /*image_size=*/32, /*noise=*/0.3);
  std::vector<Tensor> images;
  images.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    images.push_back(data.sample(1).images);
  }

  std::atomic<std::size_t> mismatches{0};
  Timer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = 0; i < per_client; ++i) {
          Tensor out = server.submit(images[c]).get();
          // The prototype is concurrently read by the workers (weights
          // only), so each client keeps a private reference network
          // sharing the same storage for the expected output.
          thread_local nn::Network reference = [&] {
            nn::Network net = spec.instantiate();
            net.set_training(false);
            net.share_parameters(server.prototype());
            return net;
          }();
          if (max_abs_diff(out, reference.forward(images[c])) > 1e-4F) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
  }
  const double elapsed_ms = wall.elapsed_ms();
  server.shutdown();

  const auto stats = server.stats();
  obs::Table table("serve_demo summary");
  table.header({"submitted", "completed", "batches", "mean batch",
                "max batch", "p50 (ms)", "p99 (ms)",
                "throughput (rps)"});
  table.row({std::to_string(stats.submitted),
             std::to_string(stats.completed),
             std::to_string(stats.batches), fmt(stats.mean_batch, 2),
             std::to_string(stats.max_batch_observed),
             fmt(stats.latency.p50_us / 1000.0, 3),
             fmt(stats.latency.p99_us / 1000.0, 3),
             fmt(static_cast<double>(stats.completed) /
                     (elapsed_ms / 1000.0),
                 1)});
  table.print(std::cout);

  if (mismatches.load() != 0) {
    std::cerr << mismatches.load()
              << " responses diverged from the prototype forward\n";
    return 1;
  }
  std::cout << "all " << stats.completed
            << " responses match the prototype's single-image forward\n";
  return 0;
}
