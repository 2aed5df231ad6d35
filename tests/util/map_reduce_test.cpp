// Tests for the deterministic map-reduce primitive (util/map_reduce.hpp):
// in-order reduction, per-item stream derivation, the stream override (the
// sharding hook), thread-count invariance, the thread count itself, and
// exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/map_reduce.hpp"
#include "util/rng.hpp"

namespace {

using namespace minim;

TEST(MapReduce, ReducesInItemOrderRegardlessOfThreads) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::MapReduceOptions options;
    options.threads = threads;
    std::vector<std::size_t> order;
    util::map_reduce(
        64, options, [](std::size_t i, util::Rng&) { return i * 3; },
        [&](std::size_t i, std::size_t&& value) {
          EXPECT_EQ(value, i * 3);
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(MapReduce, ItemStreamsAreForStreamOfSeed) {
  util::MapReduceOptions options;
  options.seed = 99;
  options.threads = 2;
  std::vector<std::uint64_t> draws(16);
  util::map_reduce(
      16, options, [](std::size_t, util::Rng& rng) { return rng(); },
      [&](std::size_t i, std::uint64_t&& draw) { draws[i] = draw; });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    util::Rng expected = util::Rng::for_stream(99, i);
    EXPECT_EQ(draws[i], expected()) << i;
  }
}

TEST(MapReduce, StreamOfOverridesTheOffset) {
  // stream_of replaces the default item i -> stream i: a shard running items
  // [0, 5) of a larger space still draws the global streams it maps them
  // to, the property sharding rests on.
  util::MapReduceOptions options;
  options.seed = 7;
  options.stream_of = [](std::size_t i) { return 5 * i + 2; };
  std::vector<std::uint64_t> draws(5);
  util::map_reduce(
      5, options, [](std::size_t, util::Rng& rng) { return rng(); },
      [&](std::size_t i, std::uint64_t&& draw) { draws[i] = draw; });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    util::Rng expected = util::Rng::for_stream(7, 5 * i + 2);
    EXPECT_EQ(draws[i], expected()) << i;
  }
}

TEST(MapReduce, ThreadCountInvariantResults) {
  auto run_with = [](std::size_t threads) {
    util::MapReduceOptions options;
    options.seed = 2001;
    options.threads = threads;
    std::vector<double> values;
    util::map_reduce(
        40, options,
        [](std::size_t, util::Rng& rng) {
          double sum = 0;
          for (int draw = 0; draw < 10; ++draw) sum += rng.uniform01();
          return sum;
        },
        [&](std::size_t, double&& value) { values.push_back(value); });
    return values;
  };
  const std::vector<double> serial = run_with(1);
  const std::vector<double> parallel = run_with(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << i;  // EQ, not NEAR: bit-identical
}

TEST(MapReduce, MoveOnlyResultsAreMovedIntoReduce) {
  util::MapReduceOptions options;
  options.threads = 2;
  std::size_t sum = 0;
  util::map_reduce(
      8, options,
      [](std::size_t i, util::Rng&) { return std::make_unique<std::size_t>(i); },
      [&](std::size_t i, std::unique_ptr<std::size_t>&& value) {
        ASSERT_TRUE(value);
        EXPECT_EQ(*value, i);
        sum += *value;
      });
  EXPECT_EQ(sum, 28u);
}

TEST(MapReduce, PropagatesMapExceptions) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::MapReduceOptions options;
    options.threads = threads;
    EXPECT_THROW(
        util::map_reduce(
            16, options,
            [](std::size_t i, util::Rng&) -> int {
              if (i == 11) throw std::runtime_error("boom");
              return 0;
            },
            [](std::size_t, int&&) {}),
        std::runtime_error);
  }
}

TEST(MapReduce, RethrowsAnExceptionThrownAfterOtherItemsFinished) {
  // Items start in index order, so items 0..14 have all started before the
  // last one; it throws only once they have finished.
  util::MapReduceOptions options;
  options.threads = 4;
  std::atomic<int> finished{0};
  bool reduced = false;
  EXPECT_THROW(
      util::map_reduce(
          16, options,
          [&](std::size_t i, util::Rng&) -> int {
            if (i < 15) return ++finished;
            while (finished.load() < 15) std::this_thread::yield();
            throw std::runtime_error("late boom");
          },
          [&](std::size_t, int&&) { reduced = true; }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 15);
  EXPECT_FALSE(reduced);
}

TEST(MapReduce, MapsEveryItemOnceWhenThreadsOutnumberItems) {
  util::MapReduceOptions options;
  options.threads = 8;
  std::vector<std::atomic<int>> mapped(3);
  std::vector<std::size_t> order;
  util::map_reduce(
      3, options,
      [&](std::size_t i, util::Rng&) { return mapped[i].fetch_add(1) + 1; },
      [&](std::size_t i, int&& times) {
        EXPECT_EQ(times, 1) << i;
        order.push_back(i);
      });
  for (std::size_t i = 0; i < mapped.size(); ++i)
    EXPECT_EQ(mapped[i].load(), 1) << i;
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(MapReduce, ZeroThreadsMeansHardwareConcurrency) {
  util::MapReduceOptions options;
  options.threads = 0;
  std::size_t sum = 0;
  util::map_reduce(
      32, options, [](std::size_t i, util::Rng&) { return i; },
      [&](std::size_t, std::size_t&& value) { sum += value; });
  EXPECT_EQ(sum, 32u * 31u / 2u);
}

TEST(MapReduce, ZeroItemsIsANoOp) {
  util::MapReduceOptions options;
  bool reduced = false;
  util::map_reduce(
      0, options, [](std::size_t, util::Rng&) { return 0; },
      [&](std::size_t, int&&) { reduced = true; });
  EXPECT_FALSE(reduced);
}

}  // namespace
