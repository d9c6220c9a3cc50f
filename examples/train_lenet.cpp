// Trains the paper's §II.A walkthrough model — LeNet-5 (Fig. 1) — on a
// synthetic 10-class digit-like dataset, end to end on the real CPU
// engines, reporting loss and accuracy per epoch.
//
// Run:  ./train_lenet [epochs] [direct|unrolling|fft|winograd]
//                     [--tune off|heuristic|measure] [--int8]
//
// With --tune the network fuses its conv+ReLU pairs and dispatches every
// convolution through the empirical autotuner; the closing table shows
// which engine won each (layer, pass) and what the tuning cost was.
//
// With --int8 the trained network is quantized after evaluation
// (Network::quantize, calibrated on training batches) and re-evaluated
// on the same 512 samples, reporting the int8 accuracy and the top-1
// agreement with the fp32 predictions (docs/QUANTIZATION.md).
//
// With the fft strategy the closing plan-cache line demonstrates the
// PlanCache contract: every layer geometry builds its transform plan
// once (misses == distinct sizes) and all repeated calls hit.
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.hpp"
#include "conv/registry.hpp"
#include "core/timer.hpp"
#include "fft/plan_cache.hpp"
#include "nn/conv_layer.hpp"
#include "nn/model_spec.hpp"
#include "nn/sgd.hpp"
#include "nn/softmax.hpp"
#include "nn/synthetic_data.hpp"
#include "obs/metrics.hpp"
#include "obs/table.hpp"
#include "tune/autotuner.hpp"

using namespace gpucnn;

namespace {

bool parse_strategy(std::string_view text, conv::Strategy& out) {
  const auto strategy = conv::strategy_named(text);
  if (strategy) out = *strategy;
  return strategy.has_value();
}

}  // namespace

int main(int argc, char** argv) try {
  int epochs = 3;
  conv::Strategy strategy = conv::Strategy::kUnrolling;
  tune::Mode tune_mode = tune::Mode::kOff;
  bool tuning = false;
  bool int8 = false;

  // Pull out the --tune flag (anywhere), then parse the positionals.
  std::vector<std::string_view> positional;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tune") {
      const auto parsed =
          i + 1 < argc ? tune::parse_mode(argv[++i]) : std::nullopt;
      if (!parsed.has_value()) {
        ok = false;
        break;
      }
      tune_mode = *parsed;
      tuning = tune_mode != tune::Mode::kOff;
    } else if (arg == "--int8") {
      int8 = true;
    } else {
      positional.push_back(arg);
    }
  }
  ok = ok && positional.size() <= 2 &&
       (positional.empty() ||
        examples::parse_positive(positional[0], "epoch count", epochs,
                                 100000)) &&
       (positional.size() < 2 || parse_strategy(positional[1], strategy));
  if (!ok) {
    std::cerr << "usage: train_lenet [epochs] "
                 "[direct|unrolling|fft|winograd] "
                 "[--tune off|heuristic|measure] [--int8]\n";
    return 2;
  }
  constexpr std::size_t kBatch = 32;
  constexpr int kStepsPerEpoch = 25;

  const auto spec = nn::lenet5(kBatch);
  std::cout << "LeNet-5: " << spec.layers.size() << " layers, "
            << spec.parameter_count() << " parameters ("
            << conv::to_string(strategy) << " convolution)\n";

  auto net = spec.instantiate(strategy);
  if (tuning) {
    tune::Autotuner::instance().set_mode(tune_mode);
    const std::size_t fused = net.fuse_conv_relu();
    net.enable_autotune(true);
    std::cout << "autotune: " << tune::to_string(tune_mode) << " mode, "
              << fused << " conv+ReLU pairs fused\n";
  }
  Rng rng(7);
  net.initialize(rng);

  nn::SyntheticDataset data(/*classes=*/10, /*channels=*/1,
                            /*image_size=*/32, /*noise=*/0.35);
  nn::Sgd sgd(net, {.learning_rate = 0.03, .momentum = 0.9,
                    .weight_decay = 1e-4});

  Tensor grad;
  Timer timer;
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    Timer epoch_timer;
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    for (int step = 0; step < kStepsPerEpoch; ++step) {
      const auto batch = data.sample(kBatch);
      net.zero_grad();
      const Tensor& probs = net.forward(batch.images);
      loss_sum += nn::cross_entropy_loss(probs, batch.labels);
      acc_sum += nn::accuracy(probs, batch.labels);
      nn::cross_entropy_prob_grad(probs, batch.labels, grad);
      net.backward(grad);
      sgd.step();
    }
    std::cout << "epoch " << epoch << "  loss "
              << loss_sum / kStepsPerEpoch << "  train accuracy "
              << acc_sum / kStepsPerEpoch << "  ("
              << obs::fmt(epoch_timer.elapsed_ms(), 0) << " ms)\n";
  }

  net.set_training(false);
  const auto eval = data.sample(512);
  const Tensor& probs = net.forward(eval.images);
  const double fp32_accuracy = nn::accuracy(probs, eval.labels);
  const std::vector<std::size_t> fp32_top = examples::top1(probs);
  std::cout << "eval accuracy on 512 fresh samples: " << fp32_accuracy
            << "\n"
            << "total training time: " << timer.elapsed_ms() / 1000.0
            << " s\n";

  if (tuning) {
    auto& tuner = tune::Autotuner::instance();
    obs::Table table("autotuned engine choices (batch " +
                          std::to_string(kBatch) + ")");
    table.header({"layer", "forward", "backward-data", "backward-filter"});
    for (std::size_t i = 0; i < net.size(); ++i) {
      const auto* conv = dynamic_cast<const nn::ConvLayer*>(&net.layer(i));
      if (conv == nullptr) continue;
      const ConvConfig cfg = conv->config_for_batch(kBatch);
      const auto pick = [&](tune::Pass pass) {
        const tune::Decision d = tuner.decide(cfg, pass);
        std::string cell(d.engine_name);
        if (d.measured) {
          cell += " (" + obs::fmt(d.best_ms, 2) + " ms)";
        }
        return cell;
      };
      table.row({conv->name(), pick(tune::Pass::kForward),
                 pick(tune::Pass::kBackwardData),
                 pick(tune::Pass::kBackwardFilter)});
    }
    table.print(std::cout);
    std::cout << "tune cache: "
              << obs::metrics().counter("tune.hits").value() << " hits, "
              << obs::metrics().counter("tune.misses").value()
              << " misses, " << obs::metrics().counter("tune.trials").value()
              << " trials, "
              << obs::fmt(obs::metrics().gauge("tune.ms_spent").value(),
                               1)
              << " ms measuring\n";
  }

  if (int8) {
    // Calibrate on fresh training-distribution batches, quantize the
    // conv layers in place, and re-run the same eval set.
    std::vector<Tensor> calibration;
    for (int i = 0; i < 4; ++i) {
      calibration.push_back(data.sample(kBatch).images);
    }
    const auto report = net.quantize(calibration);
    const Tensor& qprobs = net.forward(eval.images);
    const double int8_accuracy = nn::accuracy(qprobs, eval.labels);
    std::cout << "int8: " << report.layers_quantized
              << " conv layers quantized ("
              << report.calibration_batches << " calibration batches)\n"
              << "int8 eval accuracy: " << int8_accuracy << " (fp32 "
              << fp32_accuracy << ", delta "
              << obs::fmt(int8_accuracy - fp32_accuracy, 4) << ")\n"
              << "fp32-vs-int8 top-1 agreement: "
              << obs::fmt_percent(
                     examples::agreement(fp32_top,
                                         examples::top1(qprobs)))
              << " of 512 samples\n";
  }

  const auto hits = obs::metrics().counter("fft.plan_cache.hits").value();
  const auto misses =
      obs::metrics().counter("fft.plan_cache.misses").value();
  if (hits + misses > 0) {
    std::cout << "fft plan cache: " << hits << " hits, " << misses
              << " misses (" << fft::PlanCache::instance().size()
              << " plans resident)\n";
  }
  return 0;
} catch (const std::exception& e) {
  // E.g. Winograd on LeNet-5's 5x5 kernels: the engine rejects the
  // geometry mid-forward; report it instead of terminating.
  std::cerr << "train_lenet: " << e.what() << "\n";
  return 1;
}
