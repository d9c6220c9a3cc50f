// Lifecycle of the persistent packed-weight cache: freeze packs once
// and changes nothing numerically, training invalidates, sharing
// aliases a single packed copy, and concurrent readers are safe.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "conv/conv_engine.hpp"
#include "conv/winograd_conv.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/inception_layer.hpp"
#include "nn/network.hpp"
#include "nn/pool_layer.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::nn {
namespace {

/// Conv + FC sized so both forward GEMMs cross the blocked threshold
/// (m*n*k >= 64^3) at batch 8 — the packs are actually consumed, not
/// skipped by the small-problem naive fallback.
Network blocked_net() {
  Network net;
  net.emplace<ConvLayer>("conv",
                         ConvConfig{.batch = 1, .input = 16, .channels = 8,
                                    .filters = 16, .kernel = 3, .stride = 1,
                                    .pad = 1},
                         conv::Strategy::kUnrolling);
  net.emplace<ActivationLayer>("relu");
  net.emplace<PoolLayer>("pool", 2, 2);
  net.emplace<FcLayer>("fc", 8 * 8 * 16, 64);
  return net;
}

Tensor blocked_input(std::size_t batch, unsigned seed) {
  Rng rng(seed);
  Tensor in(batch, 8, 16, 16);
  in.fill_uniform(rng);
  return in;
}

const ConvLayer& conv_at(const Network& net, std::size_t i) {
  return dynamic_cast<const ConvLayer&>(net.layer(i));
}

const FcLayer& fc_at(const Network& net, std::size_t i) {
  return dynamic_cast<const FcLayer&>(net.layer(i));
}

TEST(PrepackLifecycle, FreezePacksEveryGemmLayerAndKeepsForwardBitIdentical) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.set_training(false);

  const Tensor in = blocked_input(8, 21);
  const Tensor staged = net.forward(in);  // copy: forward() reuses storage

  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(fc_at(net, 3).prepacked(), nullptr);

  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  ASSERT_NE(fc_at(net, 3).prepacked(), nullptr);

  const auto& hits = obs::metrics().counter("blas.sgemm.prepack_hits");
  const std::int64_t hits_before = hits.value();
  const Tensor& frozen = net.forward(in);
  EXPECT_EQ(max_abs_diff(staged, frozen), 0.0);
  EXPECT_GT(hits.value(), hits_before)
      << "the frozen forward never consumed a cached pack — the layer "
         "shapes no longer cross the blocked-GEMM threshold";
}

TEST(PrepackLifecycle, FreezeIsIdempotentOverUnchangedWeights) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  const auto conv_pack = conv_at(net, 0).prepacked();
  const auto fc_pack = fc_at(net, 3).prepacked();
  net.freeze_for_inference();
  EXPECT_EQ(conv_at(net, 0).prepacked().get(), conv_pack.get())
      << "a second freeze re-packed unchanged conv weights";
  EXPECT_EQ(fc_at(net, 3).prepacked().get(), fc_pack.get())
      << "a second freeze re-packed unchanged FC weights";
}

TEST(PrepackLifecycle, SetTrainingInvalidatesPacks) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  ASSERT_NE(fc_at(net, 3).prepacked(), nullptr);

  net.set_training(true);  // weights may change: packs must not survive
  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(fc_at(net, 3).prepacked(), nullptr);

  // Re-freezing after the round trip restores the packed path and the
  // forward stays bit-identical to the staged result.
  const Tensor in = blocked_input(8, 22);
  net.set_training(false);
  const Tensor staged = net.forward(in);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(max_abs_diff(staged, net.forward(in)), 0.0);
}

TEST(PrepackLifecycle, SetStrategyDropsTheConvPack) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  dynamic_cast<ConvLayer&>(net.layer(0))
      .set_strategy(conv::Strategy::kDirect);
  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr)
      << "an engine swap kept a pack laid out for the old engine";
}

TEST(PrepackLifecycle, ShareParametersAliasesOnePackedCopy) {
  Network owner = blocked_net();
  Rng rng(7);
  owner.initialize(rng);
  owner.freeze_for_inference();

  Network sharer = blocked_net();
  sharer.set_training(false);
  sharer.share_parameters(owner);

  // Pointer equality: the sharer adopted the owner's panels rather
  // than packing its own copy of the (shared) weights.
  EXPECT_EQ(conv_at(sharer, 0).prepacked().get(),
            conv_at(owner, 0).prepacked().get());
  EXPECT_EQ(fc_at(sharer, 3).prepacked().get(),
            fc_at(owner, 3).prepacked().get());

  const Tensor in = blocked_input(8, 23);
  const Tensor a = owner.forward(in);
  EXPECT_EQ(max_abs_diff(a, sharer.forward(in)), 0.0);
}

TEST(PrepackLifecycle, ConcurrentForwardsOverSharedPacksAgree) {
  Network owner = blocked_net();
  Rng rng(7);
  owner.initialize(rng);
  owner.freeze_for_inference();

  const Tensor in = blocked_input(8, 24);
  const Tensor expected = owner.forward(in);

  constexpr std::size_t kReaders = 4;
  std::vector<std::unique_ptr<Network>> readers;
  for (std::size_t i = 0; i < kReaders; ++i) {
    auto net = std::make_unique<Network>(blocked_net());
    net->set_training(false);
    net->share_parameters(owner);
    readers.push_back(std::move(net));
  }

  std::vector<Tensor> outputs(kReaders);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (std::size_t i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      for (int pass = 0; pass < 3; ++pass) {
        outputs[i] = readers[i]->forward(in);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kReaders; ++i) {
    EXPECT_EQ(max_abs_diff(expected, outputs[i]), 0.0)
        << "reader " << i << " diverged over the shared packs";
  }
}

TEST(PrepackLifecycle, FreezeBuildsOnlyTheForwardEnginesPanels) {
  const ConvConfig geometry{.batch = 1, .input = 12, .channels = 8,
                            .filters = 8, .kernel = 3, .stride = 1,
                            .pad = 1};
  Rng rng(5);
  ConvLayer gemm("gemm", geometry, conv::Strategy::kUnrolling);
  gemm.initialize(rng);
  gemm.set_training(false);
  gemm.freeze_for_inference();
  ASSERT_NE(gemm.prepacked(), nullptr);
  EXPECT_EQ(gemm.prepacked()->panels.size(), 1U);
  EXPECT_EQ(gemm.prepacked()->kind, conv::PackKind::kGemm);
  EXPECT_TRUE(gemm.prepacked()->data.empty());

  ConvLayer winograd("winograd", geometry, conv::Strategy::kWinograd);
  winograd.initialize(rng);
  winograd.set_training(false);
  winograd.freeze_for_inference();
  ASSERT_NE(winograd.prepacked(), nullptr);
  EXPECT_EQ(winograd.prepacked()->kind, conv::PackKind::kWinogradF2);
  EXPECT_FALSE(winograd.prepacked()->panels.empty());
  EXPECT_EQ(winograd.prepacked()->panels.size(),
            conv::winograd_positions(conv::WinogradTile::kF2));

  ConvLayer direct("direct", geometry, conv::Strategy::kDirect);
  direct.initialize(rng);
  direct.set_training(false);
  direct.freeze_for_inference();
  EXPECT_EQ(direct.prepacked(), nullptr)
      << "an engine with no prepacked path got a pack it never reads";
}

/// One inception module whose 1x1 and 3x3 branch GEMMs cross the
/// blocked threshold at batch 1, so their packs are actually consumed.
Network inception_net() {
  Network net;
  net.emplace<InceptionLayer>(
      "incept", 32, 16, InceptionParams{"incept", 32, 32, 32, 16, 32, 32});
  return net;
}

TEST(PrepackLifecycle, FreezeReachesInceptionBranchConvs) {
  Network net = inception_net();
  Rng rng(8);
  net.initialize(rng);
  net.fuse_conv_relu();
  net.set_training(false);
  Rng in_rng(9);
  Tensor in(1, 32, 16, 16);
  in.fill_uniform(in_rng);

  const auto& packed_a = obs::metrics().counter("blas.sgemm.bytes_packed_a");
  const std::int64_t before_staged = packed_a.value();
  const Tensor staged = net.forward(in);
  ASSERT_GT(packed_a.value(), before_staged)
      << "no branch GEMM reached the blocked path; the test shape is stale";

  net.freeze_for_inference();
  (void)net.forward(in);  // first frozen forward
  const std::int64_t before_frozen = packed_a.value();
  const Tensor& frozen = net.forward(in);
  EXPECT_EQ(packed_a.value(), before_frozen)
      << "a frozen inception forward re-packed its branch weights";
  EXPECT_EQ(max_abs_diff(staged, frozen), 0.0);

  // A network sharing the weights adopts the branch packs as well.
  Network sharer = inception_net();
  sharer.fuse_conv_relu();
  sharer.set_training(false);
  sharer.share_parameters(net);
  const std::int64_t before_sharer = packed_a.value();
  const Tensor& shared = sharer.forward(in);
  EXPECT_EQ(packed_a.value(), before_sharer)
      << "the sharing network packed its own copy of the branch weights";
  EXPECT_EQ(max_abs_diff(staged, shared), 0.0);
}

}  // namespace
}  // namespace gpucnn::nn
