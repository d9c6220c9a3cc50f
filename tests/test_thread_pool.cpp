#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/error.hpp"

namespace gpucnn {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksCoverRangeWithoutOverlap) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(10, 110, [&](std::size_t lo, std::size_t hi) {
    const std::scoped_lock lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::size_t total = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    total += hi - lo;
  }
  EXPECT_EQ(total, 100U);
}

TEST(ThreadPool, SumMatchesSerial) {
  std::atomic<long long> sum{0};
  parallel_for(0, 10000, [&](std::size_t i) {
    sum += static_cast<long long>(i);
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 57) throw Error("inner failure");
                        }),
      Error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10, [](std::size_t) { throw Error("x"); }),
      Error);
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1U);
  std::vector<int> order;
  pool.parallel_for(0, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1U);
}

TEST(ThreadPool, SerialThresholdRunsOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for(0, 1, [&](std::size_t) { seen = std::this_thread::get_id(); },
               /*serial_threshold=*/4);
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, OneChunkDispatchRunsOnCallerWithNestedLoopsInline) {
  // A one-item dispatch has nothing to share, so it runs on the caller —
  // and, as inside any pool task, loops nested in it run inline there.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for_chunks(0, 1, [&](std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
    pool.parallel_for(0, 64, [&](std::size_t) {
      seen.push_back(std::this_thread::get_id());  // unsynchronised: inline
    });
  });
  ASSERT_EQ(seen.size(), 65U);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ChunkedPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunks(0, 1000,
                                        [](std::size_t lo, std::size_t) {
                                          if (lo == 0) {
                                            throw Error("chunk failure");
                                          }
                                        }),
               Error);
  // Pool must stay usable after the throw.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    covered += hi - lo;
  });
  EXPECT_EQ(covered.load(), 100U);
}

TEST(ThreadPool, NestedChunkedCallsDoNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(0, 40, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for_chunks(0, 10, [&](std::size_t l, std::size_t h) {
        total += h - l;
      });
    }
  });
  EXPECT_EQ(total.load(), 400U);
}

TEST(ThreadPool, SingleWorkerChunksCoverInOrder) {
  ThreadPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(0, 37, [&](std::size_t lo, std::size_t hi) {
    chunks.emplace_back(lo, hi);
  });
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0U);
  EXPECT_EQ(chunks.back().second, 37U);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST(ThreadPool, RepeatedSmallDispatchStress) {
  // Thousands of tiny dispatches through the shared job slot: exercises
  // publish/retire churn, which is where a racy slot protocol shows up.
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int round = 0; round < 2000; ++round) {
    pool.parallel_for(0, 5, [&](std::size_t i) {
      sum += static_cast<long long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 2000LL * (0 + 1 + 2 + 3 + 4));
}

TEST(ThreadPool, BusyPoolInlineFallbackAllowsNesting) {
  // While another thread's job owns the pool, a second top-level
  // dispatch falls back to running inline. That inline body must run
  // outside the pool mutex and be free to nest further dispatches —
  // pre-fix this re-locked the non-recursive mutex and deadlocked.
  ThreadPool pool(2);
  std::atomic<bool> owner_running{false};
  std::atomic<bool> release_owner{false};
  std::atomic<std::size_t> nested_total{0};
  std::thread owner([&] {
    pool.parallel_for_chunks(0, 4, [&](std::size_t, std::size_t) {
      owner_running = true;
      while (!release_owner) std::this_thread::yield();
    });
  });
  while (!owner_running) std::this_thread::yield();
  // The owner's job is published and blocked, so this dispatch takes
  // the busy-pool inline path; its body nests another dispatch.
  pool.parallel_for_chunks(0, 8, [&](std::size_t lo, std::size_t hi) {
    pool.parallel_for_chunks(lo, hi, [&](std::size_t l, std::size_t h) {
      nested_total += h - l;
    });
  });
  release_owner = true;
  owner.join();
  EXPECT_EQ(nested_total.load(), 8U);
}

TEST(ThreadPool, ConcurrentTopLevelInvocations) {
  // Two user threads drive the global pool at once; completion tracking
  // must not cross wires.
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread t1([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_for(0, 64, [&](std::size_t) { ++a; });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_for(0, 64, [&](std::size_t) { ++b; });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 20 * 64);
  EXPECT_EQ(b.load(), 20 * 64);
}

}  // namespace
}  // namespace gpucnn
