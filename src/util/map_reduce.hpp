#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

/// \file map_reduce.hpp
/// \brief Deterministic parallel map-reduce over an index space.
///
/// Every Monte-Carlo engine in this repository has the same shape: fan N
/// independent items over worker threads, hand item i its own
/// `Rng::for_stream` stream, park results in an item-indexed slot vector,
/// and reduce them *in item order* on the calling thread.  That construction
/// makes the outcome bit-identical for any thread count (including 1) no
/// matter how the threads pick up the items.  `map_reduce` is that shape
/// written once, and `sim::Experiment`, the one Monte-Carlo fan-out, is a
/// thin layer over it.
///
/// Determinism contract:
///  * item i's randomness comes only from `Rng::for_stream(seed, stream(i))`
///    where `stream(i)` depends only on i, never on scheduling;
///  * `map` must not touch shared mutable state;
///  * `reduce` runs serially on the calling thread, in ascending item order.
///
/// Sharding: `stream_of` decouples the local item index from the global
/// stream index, so a process that runs a slice of a larger item space
/// still draws the *global* streams.  This is the primitive behind
/// `sim::Experiment`'s sharding: k processes each run a slice and their
/// merged output is bit-identical to one process running everything.

namespace minim::util {

struct MapReduceOptions {
  std::uint64_t seed = 0;   ///< master seed; items derive streams from it
  /// Threads that run items, the calling thread included: 0 = hardware
  /// concurrency, 1 = serial on the caller.  No more start than there are
  /// items.
  std::size_t threads = 0;
  /// Optional item -> stream mapping; item i draws stream i when unset.
  std::function<std::uint64_t(std::size_t)> stream_of;
};

/// Applies `map(i, rng)` to every item in [0, count) across
/// `options.threads` threads, then calls `reduce(i, std::move(result_i))`
/// serially on the calling thread in ascending item order.  Bit-identical
/// for any thread count by construction.  After the first exception thrown
/// by any `map`, no thread starts a new item; once every thread has joined,
/// that exception is rethrown and nothing is reduced.
template <typename MapFn, typename ReduceFn>
void map_reduce(std::size_t count, const MapReduceOptions& options, MapFn&& map,
                ReduceFn&& reduce) {
  using R = std::invoke_result_t<MapFn&, std::size_t, Rng&>;
  static_assert(!std::is_void_v<R>, "map must return a value to reduce");

  std::vector<std::optional<R>> slots(count);
  // Dynamic scheduling over a shared counter: run lengths vary widely
  // between grid points, so static chunks would leave threads idle.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;  // guards first_error
  auto drain = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        Rng rng = Rng::for_stream(options.seed,
                                  options.stream_of ? options.stream_of(i) : i);
        slots[i].emplace(map(i, rng));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
        return;
      }
    }
  };

  std::size_t threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, count);
  {
    // The caller drains too; each helper joins when `helpers` goes out of
    // scope, on the exception path as well.
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
    drain();
  }
  if (failed.load()) std::rethrow_exception(first_error);

  for (std::size_t i = 0; i < count; ++i) reduce(i, std::move(*slots[i]));
}

}  // namespace minim::util
